package rdma

import (
	"testing"
	"testing/quick"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

func TestPageReadLatencyMatchesPaper(t *testing.T) {
	f := NewFabric(Config{})
	done := f.PageRead(0)
	// §II-A step 4: ~4 µs to move a 4 KB page.
	lat := done.Sub(0)
	if lat < 3900*vclock.Nanosecond || lat > 4100*vclock.Nanosecond {
		t.Fatalf("page read latency = %v, want ≈4 µs", lat)
	}
}

func TestTransfersSerializeOnLink(t *testing.T) {
	f := NewFabric(Config{})
	d1 := f.PageRead(0)
	d2 := f.PageRead(0) // issued concurrently: must queue behind d1's wire time
	if !d2.After(d1) {
		t.Fatalf("concurrent transfers did not serialize: %v vs %v", d1, d2)
	}
	size := memsim.PageSize
	wire := vclock.Duration(float64(size) / 7)
	if got := d2.Sub(d1); got != wire {
		t.Fatalf("second transfer displaced by %v, want one wire time %v", got, wire)
	}
	if f.Stats().QueueDelaySum == 0 {
		t.Fatal("queue delay not recorded")
	}
}

func TestIdleLinkNoQueueDelay(t *testing.T) {
	f := NewFabric(Config{})
	f.PageRead(0)
	f.PageRead(1_000_000) // long after the link drained
	if f.Stats().QueueDelaySum != 0 {
		t.Fatalf("unexpected queue delay %v", f.Stats().QueueDelaySum)
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	a := NewFabric(Config{JitterFrac: 0.5, Seed: 1})
	b := NewFabric(Config{JitterFrac: 0.5, Seed: 1})
	base := NewFabric(Config{})
	for i := 0; i < 100; i++ {
		now := vclock.Time(i * 10_000_000)
		da, db := a.PageRead(now), b.PageRead(now)
		if da != db {
			t.Fatal("same seed produced different latencies")
		}
		d0 := base.PageRead(now)
		if da.Before(d0) {
			t.Fatal("jitter made transfer faster than jitter-free")
		}
		if da.Sub(d0) > vclock.Duration(float64(3400)*0.5)+1 {
			t.Fatalf("jitter %v exceeds bound", da.Sub(d0))
		}
	}
}

func TestStatsBytes(t *testing.T) {
	f := NewFabric(Config{})
	f.PageRead(0)
	f.Transfer(0, 100)
	s := f.Stats()
	if s.Transfers != 2 || s.Bytes != memsim.PageSize+100 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNodeWriteReadFree(t *testing.T) {
	n := NewNode(0)
	k := memsim.PageKey{PID: 1, VPN: 9}
	if n.Has(k) {
		t.Fatal("read of absent page succeeded")
	}
	if err := n.Write(k); err != nil {
		t.Fatal(err)
	}
	if !n.Has(k) {
		t.Fatal("written page not readable")
	}
	if n.Has(memsim.PageKey{PID: 2, VPN: 9}) {
		t.Fatal("page of another PID readable")
	}
}

func TestNodeCapacity(t *testing.T) {
	n := NewNode(2)
	if err := n.Write(memsim.PageKey{VPN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Write(memsim.PageKey{VPN: 2}); err != nil {
		t.Fatal(err)
	}
	if err := n.Write(memsim.PageKey{VPN: 3}); err == nil {
		t.Fatal("over-capacity write accepted")
	}
	// Rewriting a resident page is always fine.
	if err := n.Write(memsim.PageKey{VPN: 2}); err != nil {
		t.Fatalf("rewrite rejected: %v", err)
	}
}

// Property: completion time is monotone in issue time and never precedes
// issue + base latency.
func TestTransferMonotoneProperty(t *testing.T) {
	f := func(gaps []uint16) bool {
		fab := NewFabric(Config{})
		now := vclock.Time(0)
		var lastDone vclock.Time
		for _, g := range gaps {
			now = now.Add(vclock.Duration(g))
			done := fab.PageRead(now)
			if done.Sub(now) < 3400 {
				return false
			}
			if done.Before(lastDone) {
				return false // link cannot reorder completions
			}
			lastDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFabricTransfer(b *testing.B) {
	f := NewFabric(Config{JitterFrac: 0.1})
	now := vclock.Time(0)
	for i := 0; i < b.N; i++ {
		now = now.Add(1000)
		f.PageRead(now)
	}
}

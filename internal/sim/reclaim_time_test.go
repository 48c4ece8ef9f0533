package sim

import (
	"testing"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
	"hopp/internal/vmm"
	"hopp/internal/workload"
)

// TestReclaimStampedAtLandingTime is the regression test for the
// time-zero writeback bug: reclaim triggered from a prefetch landing
// used to stamp its fabric.PageWrite at time 0 instead of the landing
// time, so the writeback queued behind transfers that in simulated time
// it should have followed with a free link. The schedule below is
// hand-computed for the default zero-jitter fabric; the bug shows up as
// nonzero queue delay on the final writeback.
func TestReclaimStampedAtLandingTime(t *testing.T) {
	// ChargePrefetched makes the swapcache landing charge the cgroup
	// (HoPP's accounting), so the landing itself can force a reclaim —
	// the path that used the zero timestamp. No prefetcher machinery is
	// attached; the test launches the prefetch by hand. Half the
	// 4-page footprint is a 2-page cgroup.
	cfg := Config{
		System:          System{Name: "charged", ChargePrefetched: true},
		LocalMemoryFrac: 0.5,
	}
	m, err := New(cfg, workload.NewSequential(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	a := m.apps[0]
	key := func(v uint64) memsim.PageKey {
		return memsim.PageKey{PID: 1, VPN: memsim.VPN(v)}
	}
	acc := func(v uint64) workload.Access {
		return workload.Access{Addr: memsim.VPN(v).Addr()}
	}

	// Map pages 1 and 2 (filling the 2-page cgroup), then page 3, whose
	// reclaim writes victim page 1 back to the remote node. This is the
	// app-initiated path: the writeback is stamped with the app clock.
	for v := uint64(1); v <= 3; v++ {
		if err := m.minorFault(a, key(v), acc(v)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.met.RemoteWrites; got != 1 {
		t.Fatalf("RemoteWrites after filling = %d, want 1 (victim page 1)", got)
	}

	// Launch a prefetch of page 1 at a point where the link is long
	// free. With zero jitter the arrival is exactly issue + wire + base.
	issue := a.now.Add(10 * vclock.Microsecond)
	arrival := m.launchPrefetch(issue, key(1), false, nil)
	pageBytes := float64(memsim.PageSize)
	wire := vclock.Duration(pageBytes / 7) // 56 Gbps default
	if want := issue.Add(wire + 3400*vclock.Nanosecond); arrival != want {
		t.Fatalf("prefetch arrival = %v, want %v", arrival, want)
	}

	// Fire the landing. Inserting page 1 into the swap cache puts the
	// cgroup over its limit, so the landing itself forces a writeback of
	// victim page 2 — which must enter the fabric at the landing time.
	m.queue.RunUntil(arrival)
	if st := m.vm.Lookup(key(1)); st != vmm.SwapCached {
		t.Fatalf("page 1 after landing = %v, want SwapCached", st)
	}
	if got := m.met.RemoteWrites; got != 2 {
		t.Fatalf("RemoteWrites after landing = %d, want 2 (victim page 2)", got)
	}

	fs := m.FabricStats()
	if fs.Transfers != 3 || fs.Bytes != 3*memsim.PageSize {
		t.Fatalf("fabric saw %d transfers / %d bytes, want 3 / %d",
			fs.Transfers, fs.Bytes, 3*memsim.PageSize)
	}
	// Every transfer in this schedule starts on a free link: the two
	// writebacks are spaced far apart, and the landing-forced one begins
	// at the landing time, after the read's wire occupancy has ended.
	// Stamping it at time 0 instead would queue it behind the read's
	// wire time and show up here as a nonzero delay.
	if fs.QueueDelaySum != 0 {
		t.Fatalf("QueueDelaySum = %v, want 0: a reclaim writeback was stamped before its trigger time", fs.QueueDelaySum)
	}
}

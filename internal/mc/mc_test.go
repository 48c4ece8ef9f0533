package mc

import (
	"reflect"
	"testing"

	"hopp/internal/hpd"
	"hopp/internal/memsim"
	"hopp/internal/rpt"
	"hopp/internal/vclock"
)

func newMC(t *testing.T) *Controller {
	t.Helper()
	return MustNew(Config{})
}

// missPage feeds n READ misses to distinct cachelines of page p.
func missPage(c *Controller, p memsim.PPN, n int) {
	for i := 0; i < n; i++ {
		c.ObserveMiss(0, p.LineAddr(i%memsim.LinesPerPage), false)
	}
}

func TestHotPageFlow(t *testing.T) {
	c := newMC(t)
	c.SetMapping(100, 7, 555, false, rpt.PageBase)
	missPage(c, 100, 8) // default threshold N = 8
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", c.Pending())
	}
	hps := c.DrainInto(nil, 0)
	hp := hps[0]
	if hp.PID != 7 || hp.VPN != 555 || hp.PPN != 100 || !hp.Mapped {
		t.Fatalf("hot page = %+v", hp)
	}
}

func TestWriteMissFillsFeedHPD(t *testing.T) {
	// §III-B: a WRITE miss first generates a READ trace (the fill), so
	// write misses count toward hotness; only writebacks are omitted,
	// and those never reach ObserveMiss.
	c := newMC(t)
	c.SetMapping(5, 1, 10, false, rpt.PageBase)
	for i := 0; i < 8; i++ {
		c.ObserveMiss(0, memsim.PPN(5).LineAddr(i), true)
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d; write-miss fills must reach HPD", c.Pending())
	}
	s := c.Stats()
	if s.WriteMisses != 8 || s.ReadMisses != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MissBytes != 8*memsim.LineSize {
		t.Fatalf("MissBytes = %d", s.MissBytes)
	}
}

func TestUnmappedHotPageFlagged(t *testing.T) {
	c := newMC(t)
	missPage(c, 42, 8) // no RPT mapping installed
	hps := c.DrainInto(nil, 0)
	if len(hps) != 1 || hps[0].Mapped {
		t.Fatalf("hot pages = %+v", hps)
	}
	if c.Stats().HotUnmapped != 1 {
		t.Fatal("HotUnmapped not counted")
	}
}

func TestSharedAndHugeForwarded(t *testing.T) {
	c := newMC(t)
	c.SetMapping(9, 2, 77, true, rpt.Page2M)
	missPage(c, 9, 8)
	hp := c.DrainInto(nil, 0)[0]
	if !hp.Shared || hp.Huge != rpt.Page2M {
		t.Fatalf("flags not forwarded: %+v", hp)
	}
}

func TestClearMapping(t *testing.T) {
	c := newMC(t)
	c.SetMapping(3, 1, 30, false, rpt.PageBase)
	c.ClearMapping(3)
	missPage(c, 3, 8)
	if hp := c.DrainInto(nil, 0)[0]; hp.Mapped {
		t.Fatal("cleared mapping still resolves")
	}
}

func TestPreload(t *testing.T) {
	c := newMC(t)
	c.Preload(11, 4, 40)
	missPage(c, 11, 8)
	hp := c.DrainInto(nil, 0)[0]
	if !hp.Mapped || hp.PID != 4 || hp.VPN != 40 {
		t.Fatalf("preloaded mapping = %+v", hp)
	}
	// Preload traffic must not pollute the steady-state RPT ledger.
	if r := c.Stats().RPTBandwidthRatio(); r < 0 {
		t.Fatalf("negative RPT ratio %f", r)
	}
}

func TestBufferOverflowDropsOldest(t *testing.T) {
	c := MustNew(Config{BufferCap: 2, HPD: hpd.Config{Threshold: 1}})
	for p := memsim.PPN(0); p < 3; p++ {
		c.SetMapping(p, 1, memsim.VPN(p), false, rpt.PageBase)
		missPage(c, p, 1)
	}
	if c.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d", c.Stats().Dropped)
	}
	hps := c.DrainInto(nil, 0)
	if len(hps) != 2 || hps[0].PPN != 1 || hps[1].PPN != 2 {
		t.Fatalf("kept wrong window: %+v", hps)
	}
}

func TestDrainMax(t *testing.T) {
	c := MustNew(Config{HPD: hpd.Config{Threshold: 1}})
	for p := memsim.PPN(0); p < 5; p++ {
		missPage(c, p, 1)
	}
	if got := c.DrainInto(nil, 2); len(got) != 2 {
		t.Fatalf("DrainInto(nil, 2) = %d records", len(got))
	}
	if c.Pending() != 3 {
		t.Fatalf("Pending = %d", c.Pending())
	}
}

// The Table V sanity bound: at N=8 with a streaming workload, hot-page
// write bandwidth must stay well below 1% of miss traffic.
func TestHPDBandwidthSmall(t *testing.T) {
	c := newMC(t)
	for p := memsim.PPN(0); p < 2000; p++ {
		c.SetMapping(p, 1, memsim.VPN(p), false, rpt.PageBase)
		missPage(c, p, 64) // full page streamed: 64 lines read
	}
	s := c.Stats()
	ratio := s.HPDBandwidthRatio()
	if ratio <= 0 || ratio > 0.01 {
		t.Fatalf("HPD bandwidth ratio = %f, want (0, 1%%]", ratio)
	}
	if rpt := s.RPTBandwidthRatio(); rpt > ratio {
		t.Fatalf("RPT ratio %f should be far below HPD ratio %f", rpt, ratio)
	}
}

func TestTimestampPropagated(t *testing.T) {
	c := MustNew(Config{HPD: hpd.Config{Threshold: 1}})
	c.ObserveMiss(12345, memsim.PPN(1).LineAddr(0), false)
	if hp := c.DrainInto(nil, 0)[0]; hp.Time != 12345 {
		t.Fatalf("Time = %d", hp.Time)
	}
}

// ObserveRun must leave the controller as n ObserveMiss calls do when
// n is clipped to ToHot: the same Stats (RPTBytes too), the same drained
// records with the same Time, the same Pending. Runs go onto fresh,
// counting and sent pages, as reads and as writes; a page evicted from
// the HPD table comes back fresh.
func TestObserveRunMatchesObserveMiss(t *testing.T) {
	type run struct {
		ppn   memsim.PPN
		n     int
		write bool
	}
	// Threshold 4 over one 2-way HPD set. A run longer than ToHot is
	// played as the clipped run that crosses, then the rest.
	runs := []run{
		{1, 2, false}, {1, 1, true}, {1, 1, false}, {1, 5, false}, // fresh, counting, crossing, sent
		{2, 3, true}, {2, 1, true}, {2, 7, true}, // the same as writes
		{3, 1, false}, {1, 4, false}, {1, 2, false}, // page 3 evicts page 1, which comes back fresh
		{4, 64, false}, {5, 4, true}, {4, 1, false}, // a whole page's run: crossing, then sent
	}
	cfg := Config{HPD: hpd.Config{Sets: 1, Ways: 2, Threshold: 4}, RPTCache: rpt.CacheConfig{SizeBytes: 64, Ways: 1}, BufferCap: 2}
	byRun, byMiss := MustNew(cfg), MustNew(cfg)
	for _, c := range []*Controller{byRun, byMiss} {
		for p := memsim.PPN(1); p <= 5; p += 2 {
			c.SetMapping(p, 1, memsim.VPN(100+p), false, rpt.PageBase)
		}
	}
	var gotRecs, wantRecs []HotPage
	now := vclock.Time(1000)
	for i, r := range runs {
		for r.n > 0 {
			n := r.n
			if h := byRun.ToHot(r.ppn); h != 0 && n > h {
				n = h
			}
			if h, want := byRun.ToHot(r.ppn), byMiss.ToHot(r.ppn); h != want {
				t.Fatalf("run %d: ToHot(%d) = %d by runs, %d by misses", i, r.ppn, h, want)
			}
			for j := 0; j < n; j++ {
				now += 10
				byMiss.ObserveMiss(now, r.ppn.LineAddr(j), r.write)
			}
			byRun.ObserveRun(now, r.ppn, n, r.write)
			if got, want := byRun.Pending(), byMiss.Pending(); got != want {
				t.Fatalf("run %d: Pending %d, per-miss %d", i, got, want)
			}
			if got, want := byRun.Stats(), byMiss.Stats(); got != want {
				t.Fatalf("run %d: Stats %+v, per-miss %+v", i, got, want)
			}
			r.n -= n
		}
		if i == 8 {
			// Three crossings so far overflow the 2-record area.
			gotRecs = byRun.DrainInto(gotRecs, 0)
			wantRecs = byMiss.DrainInto(wantRecs, 0)
		}
	}
	gotRecs = byRun.DrainInto(gotRecs, 0)
	wantRecs = byMiss.DrainInto(wantRecs, 0)
	if len(wantRecs) == 0 || !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("records %+v, per-miss %+v", gotRecs, wantRecs)
	}
	if s := byRun.Stats(); s.ReadMisses == 0 || s.WriteMisses == 0 || s.HotUnmapped == 0 || s.Dropped == 0 || s.RPTBytes == 0 {
		t.Fatalf("the runs should cover reads, writes, unmapped pages, drops and RPT traffic: %+v", s)
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := New(Config{HPD: hpd.Config{Sets: 3}}); err == nil {
		t.Error("bad HPD config accepted")
	}
	if _, err := New(Config{RPTCache: rpt.CacheConfig{SizeBytes: 7}}); err == nil {
		t.Error("bad RPT cache config accepted")
	}
}

func BenchmarkObserveMiss(b *testing.B) {
	c := MustNew(Config{})
	for p := memsim.PPN(0); p < 1024; p++ {
		c.Preload(p, 1, memsim.VPN(p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ObserveMiss(0, memsim.PAddr(i%(1024*memsim.PageSize)), false)
		if i%4096 == 0 {
			c.DrainInto(nil, 0)
		}
	}
}

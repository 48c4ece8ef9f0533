package hpd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hopp/internal/memsim"
)

func TestThresholdExtraction(t *testing.T) {
	tbl := MustNew(Config{Threshold: 8})
	p := memsim.PPN(0x1000)
	for i := 1; i < 8; i++ {
		if tbl.Access(p) {
			t.Fatalf("hot after only %d accesses", i)
		}
	}
	if !tbl.Access(p) {
		t.Fatal("not hot after 8 accesses")
	}
	if tbl.Stats().HotPages != 1 {
		t.Fatalf("HotPages = %d", tbl.Stats().HotPages)
	}
}

func TestSendBitSuppressesRepeats(t *testing.T) {
	tbl := MustNew(Config{Threshold: 2})
	p := memsim.PPN(4)
	tbl.Access(p)
	if !tbl.Access(p) {
		t.Fatal("expected hot at threshold")
	}
	// All further accesses are dropped while the entry remains resident.
	for i := 0; i < 10; i++ {
		if tbl.Access(p) {
			t.Fatal("re-extracted a page whose send bit is set")
		}
	}
	if got := tbl.Stats().SendSuppressed; got != 10 {
		t.Fatalf("SendSuppressed = %d, want 10", got)
	}
	if tbl.Stats().HotPages != 1 {
		t.Fatal("duplicate extraction")
	}
}

func TestThresholdOneExtractsImmediately(t *testing.T) {
	tbl := MustNew(Config{Threshold: 1})
	if !tbl.Access(9) {
		t.Fatal("threshold 1 must extract on first access")
	}
	if tbl.Access(9) {
		t.Fatal("send bit must suppress the second access")
	}
}

func TestSetIndexLowBits(t *testing.T) {
	tbl := MustNew(Default())
	// Pages 0,4,8,... share set 0 (low 2 bits). 16 ways hold 16 of them;
	// the 17th insert evicts the LRU (page 0).
	for i := 0; i < 17; i++ {
		tbl.Access(memsim.PPN(i * 4))
	}
	if ev := tbl.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// Pages in other sets are untouched: inserting 16 pages in set 1
	// causes no eviction.
	tbl2 := MustNew(Default())
	for i := 0; i < 16; i++ {
		tbl2.Access(memsim.PPN(i*4 + 1))
	}
	if ev := tbl2.Stats().Evictions; ev != 0 {
		t.Fatalf("cross-set interference: %d evictions", ev)
	}
}

func TestLRUVictimSelection(t *testing.T) {
	tbl := MustNew(Config{Sets: 1, Ways: 2, Threshold: 4})
	tbl.Access(10) // insert 10
	tbl.Access(20) // insert 20
	tbl.Access(10) // 20 becomes LRU
	tbl.Access(30) // evicts 20
	// 10 should still have its count: two more accesses make it hot (4 total).
	tbl.Access(10)
	if !tbl.Access(10) {
		t.Fatal("resident entry lost its count")
	}
	// 20 was evicted pre-threshold.
	if got := tbl.Stats().EvictedBeforeHot; got != 1 {
		t.Fatalf("EvictedBeforeHot = %d, want 1", got)
	}
}

func TestEvictionResetsCount(t *testing.T) {
	tbl := MustNew(Config{Sets: 1, Ways: 1, Threshold: 3})
	tbl.Access(1)
	tbl.Access(1)
	tbl.Access(2) // evicts 1
	tbl.Access(1) // reinserted with count 1
	tbl.Access(1)
	if tbl.Access(1) != true {
		t.Fatal("expected hot exactly at 3 accesses after reinsertion")
	}
}

func TestTrackedAndReset(t *testing.T) {
	tbl := MustNew(Default())
	for i := 0; i < 10; i++ {
		tbl.Access(memsim.PPN(i))
	}
	if tbl.Tracked() != 10 {
		t.Fatalf("Tracked = %d", tbl.Tracked())
	}
	tbl.Reset()
	if tbl.Tracked() != 0 || tbl.Stats().Accesses != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Sets: 3, Ways: 16, Threshold: 8}); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: -1, Threshold: 8}); err == nil {
		t.Error("negative ways accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: 17, Threshold: 8}); err == nil {
		t.Error("ways > 16 accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: 16, Threshold: 65}); err == nil {
		t.Error("threshold > 64 accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: 16, Threshold: -2}); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestDefaultsFilled(t *testing.T) {
	tbl := MustNew(Config{})
	cfg := tbl.cfg
	if cfg.Sets != 4 || cfg.Ways != 16 || cfg.Threshold != 8 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// The Table II trend: with a fixed access pattern, larger N extracts
// fewer hot pages.
func TestHotRatioFallsWithThreshold(t *testing.T) {
	pattern := func(tbl *Table) {
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 200000; i++ {
			// Sequential scan with some reuse, like PageRank's footprint.
			page := memsim.PPN(i / 16)
			if rng.Intn(4) == 0 {
				page = memsim.PPN(rng.Intn(i/16 + 1))
			}
			tbl.Access(page)
		}
	}
	var prev float64 = 2
	for _, n := range []int{2, 4, 8, 16, 32} {
		tbl := MustNew(Config{Threshold: n})
		pattern(tbl)
		ratio := tbl.Stats().HotRatio()
		if ratio >= prev {
			t.Fatalf("hot ratio did not fall: N=%d ratio=%f prev=%f", n, ratio, prev)
		}
		prev = ratio
	}
}

// Property: the table never reports more hot pages than accesses, and
// extraction count matches the hot ratio identity.
func TestStatsConsistencyProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		thr := int(n%16) + 1
		tbl := MustNew(Config{Threshold: thr})
		for i := 0; i < 2000; i++ {
			tbl.Access(memsim.PPN(rng.Intn(128)))
		}
		s := tbl.Stats()
		if s.HotPages > s.Accesses {
			return false
		}
		if s.Accesses != 2000 {
			return false
		}
		// Every hot page required at least thr accesses.
		return s.HotPages <= s.Accesses/uint64(thr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHPDAccess(b *testing.B) {
	tbl := MustNew(Default())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.Access(memsim.PPN(i % 256))
	}
}

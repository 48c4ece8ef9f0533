package sim

import (
	"testing"

	"hopp/internal/core"
	"hopp/internal/workload"
)

// TestSharedFlagPropagates verifies §III-C's shared-page flag travels
// the whole pipeline: workload region → set_pte_at hook → RPT entry →
// hot page record → HoPP software, where the DropShared policy can act
// on it.
func TestSharedFlagPropagates(t *testing.T) {
	gen := workload.NewSharedScan(768, 512, 3)

	run := func(drop bool) (*Machine, Metrics) {
		p := core.DefaultParams()
		p.DropShared = drop
		sys := HoPPWith(p)
		m := MustNew(Config{System: sys, LocalMemoryFrac: 0.5, Seed: 1}, gen)
		met, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m, met
	}

	mKeep, _ := run(false)
	mDrop, met := run(true)
	// The private stream must still train and prefetch.
	if met.InjectedHits == 0 {
		t.Fatal("DropShared killed the private stream's prefetching")
	}
	// With shared pages filtered, the trainer sees fewer hot pages than
	// the unfiltered run.
	ts, tsKeep := trainerStats(mDrop), trainerStats(mKeep)
	if ts.HotPages >= tsKeep.HotPages {
		t.Fatalf("filtered trainer saw %d hot pages, unfiltered %d", ts.HotPages, tsKeep.HotPages)
	}
}

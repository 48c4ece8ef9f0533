package experiments

import (
	"runtime"
	"testing"

	"hopp/internal/sim"
	"hopp/internal/workload"
)

// Every catalog workload replays from a frozen stream access-for-access
// as a fresh generator runs, through the one page-program player: the
// replay is a *workload.Base like the fresh one, so the simulator's
// devirtualized Next serves both.
func TestCatalogReplayMatchesFresh(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 20 {
		t.Fatalf("catalog has %d workloads, want 20", len(names))
	}
	for _, name := range names {
		for _, seed := range []int64{1, 7} {
			fresh, _ := NewWorkload(name, true)
			tmpl, _ := NewWorkload(name, true)
			rep := workload.Freeze(tmpl, seed).Replay()
			if rep.FootprintPages() != fresh.FootprintPages() {
				t.Fatalf("%s seed %d: replay footprint %d, fresh %d", name, seed, rep.FootprintPages(), fresh.FootprintPages())
			}
			fresh.Reset(seed)
			rep.Reset(seed)
			for i := 0; ; i++ {
				want, wok := fresh.Next()
				got, gok := rep.Next()
				if got != want || gok != wok {
					t.Fatalf("%s seed %d, access %d: replay %+v (%v), fresh %+v (%v)", name, seed, i, got, gok, want, wok)
				}
				if !wok {
					break
				}
			}
		}
	}
}

// Building a machine costs memory in proportion to the workload's
// touched footprint, not to the span of its VPNs: several catalog
// programs place regions 2^18–2^21 pages apart, and their page tables
// must not pay for the gaps. Quick scale, HoPP at half local memory.
func TestSimNewAllocatesUnder1MB(t *testing.T) {
	o := Options{Seed: 1, Quick: true}
	for _, name := range WorkloadNames() {
		gen, _ := NewWorkload(name, true)
		cfg := o.SimConfig(0.5)
		cfg.System = sim.HoPP()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := sim.New(cfg, gen)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: sim.New allocated %d bytes, want under 1 MB", name, got)
		}
	}
}

// Two catalog generators of one workload share its seed-0 footprint:
// once the first has counted it, minting another and reading its
// footprint allocates the generator alone, where a rebuild of the
// seed-0 program would allocate its whole visit list.
func TestCatalogCountsFootprintOnce(t *testing.T) {
	first, _ := NewWorkload("quicksort", true)
	want := first.FootprintPages()
	second, _ := NewWorkload("quicksort", true)
	if second == first {
		t.Fatal("NewWorkload handed out one generator twice")
	}
	if got := second.FootprintPages(); got != want {
		t.Fatalf("second generator's footprint = %d, first's %d", got, want)
	}
	allocs := testing.AllocsPerRun(10, func() {
		g, _ := NewWorkload("quicksort", true)
		g.FootprintPages()
	})
	if allocs != 1 {
		t.Fatalf("a further generator and its footprint cost %v allocations, want 1 (the generator)", allocs)
	}
	if got := workload.NewQuicksort(Options{Quick: true}.scale(3072)).FootprintPages(); got != want {
		t.Fatalf("shared footprint = %d, a fresh quicksort counts %d", want, got)
	}
}

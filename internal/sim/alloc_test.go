package sim

import (
	"testing"

	"hopp/internal/workload"
)

// stepN drives the machine's step loop until n more accesses have run —
// a step plays one access or, on a mapped page of a *workload.Base
// app, the rest of its visit — failing the test on a generator
// exhaustion or step error. The workloads below carry enough loops that
// exhaustion means a setup bug.
func stepN(t *testing.T, m *Machine, n uint64) {
	t.Helper()
	a := m.apps[0]
	for start := m.met.Accesses; m.met.Accesses-start < n; {
		if err := m.step(a); err != nil {
			t.Fatal(err)
		}
		if a.done {
			t.Fatal("workload exhausted mid-measurement; raise its loop count")
		}
	}
}

// TestStepZeroAllocDRAMHit pins the hottest path in the simulator — a
// mapped page's access streaming through both cache levels to DRAM,
// feeding the HoPP hot-page pipeline — to zero steady-state heap
// allocations. This is the invariant the hot-loop work established:
// every structure on the path (drain buffers, HPD/RPT
// state, the hot-page ring, trainer scratch, flat maps) is reused, so
// throughput does not decay into the allocator. Sequential is a
// *workload.Base, so all but the first line of each visit run in
// runVisit's batch: both loops are pinned.
func TestStepZeroAllocDRAMHit(t *testing.T) {
	// 4096-page footprint against a 2 MB LLC: the stream never fits, so
	// steady state is all LLC misses. No memory limit: every page stays
	// mapped after its first touch (no reclaim, no prefetch launches).
	gen := workload.NewSequential(4096, 1000)
	m, err := New(Config{System: HoPP()}, gen)
	if err != nil {
		t.Fatal(err)
	}
	// Three full passes: fault every page in, grow every on-demand
	// structure (line bitmaps, hot-page ring, flat maps) to its
	// steady-state size.
	stepN(t, m, 3*4096*64)
	if avg := testing.AllocsPerRun(10, func() { stepN(t, m, 2000) }); avg > 0 {
		t.Fatalf("steady-state DRAM-hit path allocates %.1f times per 2000 accesses, want 0", avg)
	}
}

// TestStepZeroAllocCacheHit pins the cache-hit path: a footprint small
// enough to live in L2 entirely, so after warmup every access is an L2
// hit (LRU touch only) and the MC pipeline stays idle.
func TestStepZeroAllocCacheHit(t *testing.T) {
	gen := workload.NewSequential(8, 1_000_000)
	m, err := New(Config{System: HoPP()}, gen)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, m, 3*8*64)
	if avg := testing.AllocsPerRun(10, func() { stepN(t, m, 2000) }); avg > 0 {
		t.Fatalf("steady-state cache-hit path allocates %.1f times per 2000 accesses, want 0", avg)
	}
}

package prefetch

import (
	"testing"

	"hopp/internal/memsim"
)

// hhpSlot returns the accumulation-table slot a region index maps to.
func hhpSlot(regionIdx uint64) uint64 {
	r := regionOf(memsim.PageKey{PID: 1, VPN: memsim.VPN(regionIdx << regionShift)})
	return mix(r) >> (64 - hhpACBits)
}

// hhpColliding returns n distinct region indices that share one
// accumulation-table slot, so opening one deterministically retires the
// previous — the only path by which footprints reach the pattern table.
func hhpColliding(t *testing.T, n int) []uint64 {
	t.Helper()
	want := hhpSlot(0)
	out := []uint64{0}
	for r := uint64(1); len(out) < n; r++ {
		if r > 1<<20 {
			t.Fatal("no colliding regions found")
		}
		if hhpSlot(r) == want {
			out = append(out, r)
		}
	}
	return out
}

// hhpFaultFootprint faults the given offsets of a region in order.
func hhpFaultFootprint(p *HHP, regionIdx uint64, offs []int) {
	base := memsim.VPN(regionIdx << regionShift)
	for _, off := range offs {
		p.OnFault(0, k(1, base+memsim.VPN(off)))
	}
}

// HHP must learn a region footprint over two retirements and replay it
// when a fresh region opens at the same trigger offset; an unused
// eviction must prune that page from all future replays.
func TestHHPReplaysAndPrunesFootprint(t *testing.T) {
	p := NewHHP(16, 2)
	regions := hhpColliding(t, 3)
	footprint := []int{0, 3, 7, 9}

	// Region 1 displaces region 0 (conf 1), region 2 displaces region 1
	// (identical bitmap, Jaccard merge, conf 2 = threshold) — and its
	// opening fault replays the learned pattern minus the trigger.
	hhpFaultFootprint(p, regions[0], footprint)
	hhpFaultFootprint(p, regions[1], footprint)
	base2 := memsim.VPN(regions[2] << regionShift)
	got := p.OnFault(0, k(1, base2))
	want := []memsim.VPN{base2 + 3, base2 + 7, base2 + 9}
	if len(got) != len(want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay = %v, want %v", got, want)
		}
	}

	// Reclaiming base2+7 untouched prunes offset 7; a fresh region at
	// the same trigger replays only 3 and 9.
	p.OnPrefetchEvicted(0, k(1, base2+7), false)
	var fresh uint64 = 1
	for hhpSlot(fresh) == hhpSlot(0) {
		fresh++
	}
	base3 := memsim.VPN(fresh << regionShift)
	got = p.OnFault(0, k(1, base3))
	want = []memsim.VPN{base3 + 3, base3 + 9}
	if len(got) != len(want) {
		t.Fatalf("post-prune replay = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-prune replay = %v, want %v", got, want)
		}
	}
}

// A working set smaller than the accumulation table never recycles a
// slot, so displacement alone would never retire anything. The trigger
// offset major-faulting again in a live region — the workload looped
// back after reclaim — must count as a generation boundary: retire the
// accumulated footprint, and replay once confidence reaches threshold.
func TestHHPGenerationBoundaryRetires(t *testing.T) {
	p := NewHHP(16, 2)
	footprint := []int{0, 3, 7, 9}
	base := memsim.VPN(5 << regionShift)

	// Generation 1 accumulates; the loop-back fault at the trigger
	// retires it (conf 1 < threshold, so no replay yet) and opens
	// generation 2.
	hhpFaultFootprint(p, 5, footprint)
	if got := p.OnFault(0, k(1, base)); len(got) != 0 {
		t.Fatalf("replayed %v at conf 1", got)
	}
	// Generation 2 re-accumulates the same footprint; the next loop-back
	// merges it (conf 2 = threshold) and replays the pattern minus the
	// trigger — all without a single slot collision.
	hhpFaultFootprint(p, 5, footprint[1:])
	got := p.OnFault(0, k(1, base))
	want := []memsim.VPN{base + 3, base + 7, base + 9}
	if len(got) != len(want) {
		t.Fatalf("loop-back replay = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loop-back replay = %v, want %v", got, want)
		}
	}
}

// A dissimilar footprint at the same trigger must decay the pattern
// below the replay threshold instead of replaying garbage.
func TestHHPDissimilarFootprintDecays(t *testing.T) {
	p := NewHHP(16, 2)
	regions := hhpColliding(t, 4)

	hhpFaultFootprint(p, regions[0], []int{0, 3, 7, 9})
	// A near-disjoint footprint from the same trigger: retire of region 0
	// seeds conf 1, retire of region 1 decays it to 0 and replaces.
	hhpFaultFootprint(p, regions[1], []int{0, 20, 30, 40, 50})
	base2 := memsim.VPN(regions[2] << regionShift)
	if got := p.OnFault(0, k(1, base2)); len(got) != 0 {
		t.Fatalf("decayed pattern still replayed %v", got)
	}
}

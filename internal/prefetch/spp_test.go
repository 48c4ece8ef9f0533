package prefetch

import (
	"testing"

	"hopp/internal/memsim"
)

// sppTrainRegions replays a stride-1 burst of length n through several
// distinct regions so every signature on the path reaches the given
// repeat count.
func sppTrainRegions(p *SPP, regions []uint64, n int) {
	for _, r := range regions {
		base := memsim.VPN(r << regionShift)
		for off := 0; off < n; off++ {
			p.OnFault(0, k(1, base+memsim.VPN(off)))
		}
	}
}

// SPP must learn a repeated in-region delta path and walk it to the
// lookahead bound once the path's confidence saturates.
func TestSPPLearnsSignaturePath(t *testing.T) {
	p := NewSPP(4, 25)
	sppTrainRegions(p, []uint64{1, 2, 3}, 9)

	base := memsim.VPN(100 << regionShift)
	if got := p.OnFault(0, k(1, base)); len(got) != 0 {
		t.Fatalf("bootstrap fault predicted %v", got)
	}
	got := p.OnFault(0, k(1, base+1))
	want := []memsim.VPN{base + 2, base + 3, base + 4, base + 5}
	if len(got) != len(want) {
		t.Fatalf("lookahead walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lookahead walk = %v, want %v", got, want)
		}
	}
}

// The walk must stop at the 64-page region edge: the signature
// describes in-region behaviour only.
func TestSPPWalkStopsAtRegionEdge(t *testing.T) {
	p := NewSPP(8, 25)
	sppTrainRegions(p, []uint64{1, 2, 3}, 12)

	// Walk the stream to within 2 pages of the region edge; a lookahead
	// of 8 must clip to the 2 in-region pages.
	base := memsim.VPN(200 << regionShift)
	var got []memsim.VPN
	for off := 0; off <= regionPages-3; off++ {
		got = p.OnFault(0, k(1, base+memsim.VPN(off)))
	}
	for _, v := range got {
		if uint64(v)>>regionShift != uint64(base)>>regionShift {
			t.Fatalf("prediction %d crossed the region edge", v)
		}
	}
	if len(got) != 2 {
		t.Fatalf("expected the edge to clip the walk to 2 pages, got %v", got)
	}
}

// Unused evictions must decay the issuing pattern-table entries until
// the walk throttles itself off; a hit builds it back.
func TestSPPFeedbackThrottlesWalk(t *testing.T) {
	p := NewSPP(4, 25)
	sppTrainRegions(p, []uint64{1, 2, 3}, 9)

	predict := func(r uint64) []memsim.VPN {
		base := memsim.VPN(r << regionShift)
		p.OnFault(0, k(1, base))
		return p.OnFault(0, k(1, base+1))
	}
	evictAll := func(out []memsim.VPN) {
		for _, v := range out {
			p.OnPrefetchEvicted(0, k(1, v), false)
		}
	}

	// conf 3 on every path entry: full lookahead.
	out := predict(100)
	if len(out) != 4 {
		t.Fatalf("saturated walk = %v, want 4 pages", out)
	}
	evictAll(out)
	// conf 2: 100 -> 66 -> 44 -> 29 -> 19, three survive the threshold.
	out = predict(101)
	if len(out) != 3 {
		t.Fatalf("after one decay round walk = %v, want 3 pages", out)
	}
	// Touched prefetches rebuild the entries that issued them.
	for _, v := range out {
		p.OnPrefetchHit(0, k(1, v))
	}
	out = predict(102)
	if len(out) != 4 {
		t.Fatalf("hit feedback did not restore the full walk: %v", out)
	}
	// Decay to extinction: 3 -> 2 -> 1 -> 0 on the leading entry.
	evictAll(out)
	evictAll(predict(103))
	evictAll(predict(104))
	if out = predict(105); len(out) != 0 {
		t.Fatalf("fully decayed path still predicts %v", out)
	}
}

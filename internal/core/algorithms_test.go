package core

import (
	"math/rand"
	"testing"

	"hopp/internal/memsim"
)

func strides(vs ...int64) []memsim.Stride {
	out := make([]memsim.Stride, len(vs))
	for i, v := range vs {
		out[i] = memsim.Stride(v)
	}
	return out
}

func vpns(vs ...uint64) []memsim.VPN {
	out := make([]memsim.VPN, len(vs))
	for i, v := range vs {
		out[i] = memsim.VPN(v)
	}
	return out
}

// tally counts a window the way the trainer's appends do.
func tally(window []memsim.Stride) strideCounts {
	var c strideCounts
	for _, s := range window {
		c.add(s)
	}
	return c
}

// sspOf runs SSP over a full history window the way the trainer does:
// from the window's tallies, scanning only on a tie.
func sspOf(hist []memsim.Stride, strideA memsim.Stride, historyLen int) (memsim.Stride, bool) {
	return new(tierScratch).ssp(tally(hist), hist, strideA, historyLen)
}

func TestSSPDominantStride(t *testing.T) {
	// 15 strides + strideA, L=16: dominant needs ≥8 occurrences.
	hist := strides(2, 2, 2, 2, 2, 2, 2, 5, 5, 5, 5, 5, 2, 7, 9)
	// stride 2 occurs 8 times in history; strideA=3 does not change that.
	s, ok := sspOf(hist, 3, 16)
	if !ok || s != 2 {
		t.Fatalf("ssp = %d,%v, want 2,true", s, ok)
	}
}

func TestSSPNoDominant(t *testing.T) {
	hist := strides(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
	if _, ok := sspOf(hist, 16, 16); ok {
		t.Fatal("ssp found a dominant stride in all-distinct strides")
	}
}

func TestSSPStrideACounts(t *testing.T) {
	// Exactly 7 in history; strideA makes it 8 = L/2.
	hist := strides(2, 2, 2, 2, 2, 2, 2, 1, 3, 4, 5, 6, 7, 8, 9)
	if s, ok := sspOf(hist, 2, 16); !ok || s != 2 {
		t.Fatalf("strideA not counted toward dominance: %d,%v", s, ok)
	}
}

func TestSSPRejectsZeroStride(t *testing.T) {
	hist := strides(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if _, ok := sspOf(hist, 0, 16); ok {
		t.Fatal("zero stride accepted as a stream")
	}
}

func TestSSPNegativeStride(t *testing.T) {
	hist := strides(-3, -3, -3, -3, -3, -3, -3, -3, 1, 2, 1, 2, 1, 2, 1)
	if s, ok := sspOf(hist, -3, 16); !ok || s != -3 {
		t.Fatalf("descending stream not detected: %d,%v", s, ok)
	}
}

// ladderHistory builds the Fig. 2 footprint: T parallel simple streams
// visited round-robin (the ladder tread), each with a rise between
// sweeps. E.g. with streams at base 0, 100, 200 and tread stride 1:
// 0,100,200, 1,101,201, 2,102,202, ...
func ladderHistory(nStreams int, bases []uint64, count int) []memsim.VPN {
	var out []memsim.VPN
	for i := 0; len(out) < count; i++ {
		for s := 0; s < nStreams && len(out) < count; s++ {
			out = append(out, memsim.VPN(bases[s]+uint64(i)))
		}
	}
	return out
}

func derive(vs []memsim.VPN) []memsim.Stride {
	out := make([]memsim.Stride, len(vs)-1)
	for i := 1; i < len(vs); i++ {
		out[i-1] = memsim.StrideBetween(vs[i-1], vs[i])
	}
	return out
}

func TestLSPIdentifiesLadder(t *testing.T) {
	// 3 interleaved streams at bases 0, 10, 20 with tread stride 1:
	// 0,10,20, 1,11,21, 2,12,22, 3,13,23, 4,14,24, 5 then vA = 15.
	full := ladderHistory(3, []uint64{0, 10, 20}, 17)
	hist := full[:16]
	vA := full[16] // 15
	strideA := memsim.StrideBetween(hist[15], vA)
	res, ok := new(tierScratch).lsp(hist, derive(hist), strideA)
	if !ok {
		t.Fatal("LSP failed on a clean ladder")
	}
	// The target pattern's next stride continues to the next rung (+10),
	// and the pattern recurs every 1 page along its own stream.
	if res.strideTarget != 10 || res.patternStride != 1 {
		t.Fatalf("strideTarget=%d patternStride=%d, want 10, 1", res.strideTarget, res.patternStride)
	}
	// With offset i=1 the prediction is 15+10+1 = 26; the real future
	// continuation is ...25, 6, 16, 26..., so 26 is indeed upcoming.
	next := int64(vA) + int64(res.strideTarget) + int64(res.patternStride)
	if next != 26 {
		t.Fatalf("prediction = %d, want 26", next)
	}
}

func TestLSPWiderLadder(t *testing.T) {
	// 4 interleaved streams; strideA is the tread rewind (-149).
	full := ladderHistory(4, []uint64{0, 50, 100, 150}, 18)
	hist := full[:16]
	vA := full[16] // 4
	strideA := memsim.StrideBetween(hist[15], vA)
	res, ok := new(tierScratch).lsp(hist, derive(hist), strideA)
	if !ok {
		t.Fatal("LSP failed")
	}
	if res.strideTarget != 50 || res.patternStride != 1 {
		t.Fatalf("strideTarget=%d patternStride=%d, want 50, 1", res.strideTarget, res.patternStride)
	}
}

func TestLSPRejectsNoRepetition(t *testing.T) {
	hist := vpns(0, 7, 3, 90, 14, 2, 80, 44, 5, 61, 33, 9, 70, 21, 50, 13)
	if _, ok := new(tierScratch).lsp(hist, derive(hist), 17); ok {
		t.Fatal("LSP matched an unrepeated pattern")
	}
}

func TestLSPShortHistoryRejected(t *testing.T) {
	hist := vpns(1, 2, 3)
	if _, ok := new(tierScratch).lsp(hist, derive(hist), 1); ok {
		t.Fatal("LSP accepted a 3-page history")
	}
}

func TestRSPCleanRipple(t *testing.T) {
	// A ripple stream: mostly stride 1 with out-of-order wiggles.
	hist := strides(1, 1, -1, 2, 1, 1, 1, -2, 3, 1, 1, 1, 1, 1, 1)
	if !rsp(hist, 1, 16, 2) {
		t.Fatal("RSP rejected a ripple stream")
	}
}

func TestRSPRejectsBigStrides(t *testing.T) {
	// Truly divergent strides: cumulative sums never return near zero.
	div := strides(100, 130, 90, 121, 77, 140, 99, 155, 60, 170, 88, 143, 101, 166, 50)
	if rsp(div, 123, 16, 2) {
		t.Fatal("RSP accepted a divergent stream")
	}
}

func TestRSPHopOutAndBack(t *testing.T) {
	// Fig. 3: accesses hop out of the stream and return: cumulative
	// strides cancel. +5 then -4 nets +1 ≤ max_stride.
	hist := strides(1, 5, -4, 1, 1, 5, -4, 1, 1, 5, -4, 1, 1, 5, -4)
	if !rsp(hist, 1, 16, 2) {
		t.Fatal("RSP rejected hop-out-and-back ripple")
	}
}

func TestRSPThresholdExactlyHalf(t *testing.T) {
	// Algorithm 2 line 10 uses ≥: with historyLen 4 we need 2 ripple
	// points. strideA=1 ripples, and the newest history stride (1)
	// ripples; the huge stride in between blocks further returns.
	if !rsp(strides(1, 1000, 1), 1, 4, 2) {
		t.Fatal("≥ L/2 boundary not honored")
	}
	// One ripple point fewer fails: strideA huge, only the tail 1 counts.
	if rsp(strides(1000, 2000, 1), 999, 4, 2) {
		t.Fatal("below-threshold ripple accepted")
	}
}

func TestModePicksMostFrequent(t *testing.T) {
	if m := new(tierScratch).mode(strides(3, 5, 3, 7, 3)); m != 3 {
		t.Fatalf("mode = %d, want 3", m)
	}
	if m := new(tierScratch).mode(strides(9)); m != 9 {
		t.Fatalf("mode single = %d", m)
	}
}

// Ties at the top count go to the value that first reaches that count,
// not to the first value seen: the running maximum moves only on a
// strictly greater count.
func TestTieRuleFirstToReachTopCount(t *testing.T) {
	var sc tierScratch
	// Scan order 3, 5, 5, 3: 3 is seen first, 5 reaches two first.
	if s, ok := sc.dominantStride(strides(5, 5, 3), 3, 2); !ok || s != 5 {
		t.Fatalf("dominantStride([5 5 3], 3, 2) = %d,%v, want 5,true", s, ok)
	}
	if m := sc.mode(strides(3, 5, 5, 3)); m != 5 {
		t.Fatalf("mode([3 5 5 3]) = %d, want 5", m)
	}
	// The tallies cannot order a tie, so SSP scans and keeps the rule.
	if _, _, tie := tally(strides(5, 5, 3)).dominant(3, 2); !tie {
		t.Fatal("a 2-2 tie at half not reported")
	}
	if s, ok := sspOf(strides(5, 5, 3), 3, 4); !ok || s != 5 {
		t.Fatalf("ssp over a tie = %d,%v, want 5,true", s, ok)
	}
}

// The counting helpers never read a slot they did not write in the
// same call, so a scratch left dirty by earlier calls answers the same.
func TestTierScratchNeedsNoZeroing(t *testing.T) {
	// Stale counts that fall with the slot index would hand the win to
	// whichever value landed in the earliest slot.
	var dirty tierScratch
	for i := range dirty.vals {
		dirty.vals[i], dirty.counts[i] = memsim.Stride(i%3), 1000-10*i
	}
	if m := dirty.mode(strides(7, 5, 5)); m != 5 {
		t.Fatalf("mode on a dirty scratch = %d, want 5", m)
	}
	if s, ok := dirty.dominantStride(strides(3, 5, 5), 7, 2); !ok || s != 5 {
		t.Fatalf("dominantStride on a dirty scratch = %d,%v, want 5,true", s, ok)
	}
}

// Property: over random windows, SSP from the tallies (scanning only on
// a tie) answers exactly what the full scan answers, and a window kept
// by add/remove as it slides tallies like one counted from scratch.
func TestStrideCountsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sc tierScratch
	for _, l := range []int{2, 3, 4, 5, 8, 16} {
		var c strideCounts
		var window []memsim.Stride
		for i := 0; i < 4000; i++ {
			s := memsim.Stride(rng.Intn(4) - 1)
			c.add(s)
			window = append(window, s)
			if len(window) > l-1 {
				c.remove(window[0])
				window = window[1:]
			}
			if len(window) < l-1 {
				continue
			}
			a := memsim.Stride(rng.Intn(4) - 1)
			want, wantOK := sc.dominantStride(window, a, l/2)
			if wantOK && want == 0 {
				wantOK = false
			}
			got, gotOK := sc.ssp(c, window, a, l)
			if got != want && (gotOK || wantOK) || gotOK != wantOK {
				t.Fatalf("L=%d window %v strideA %d: ssp = %d,%v, scan = %d,%v", l, window, a, got, gotOK, want, wantOK)
			}
			if fresh := tally(window); !sameTallies(c, fresh) {
				t.Fatalf("L=%d window %v: slid tallies %v, fresh %v", l, window, c, fresh)
			}
		}
	}
}

func sameTallies(a, b strideCounts) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

package core

import "hopp/internal/memsim"

// This file holds the three tier algorithms as pure functions over a
// stream's VPN/stride history, mirroring §III-D2–4. The inputs follow
// the paper's convention: vpns holds the last L pages of the stream
// (oldest first), strides the L-1 derived strides, and strideA is the
// stride from vpns[L-1] to the newly arrived hot page — which has NOT
// yet been appended to the history.

// countWindow bounds the history length the frequency helpers below
// count over. Histories are HistoryLen-bounded (default 16) and
// NewTrainer rejects a HistoryLen above countWindow, so a tierScratch
// covers every history.
//
// Tie rule: each helper keeps a running maximum that moves only on a
// strictly greater count while it scans its input in order, so among
// values tied at the top count the winner is the one that first
// *reaches* that count — not the first one seen. dominantStride([5, 5,
// 3], 3, 2) returns 5 (3 is seen first, but 5 reaches two first), and
// mode([3, 5, 5, 3]) returns 5.
const countWindow = 64

// tierScratch is the counting space of the tier algorithms. Each
// trainer owns one (trainers run concurrently, so it cannot be shared),
// and the counting helpers initialize only the slots they use: the
// space is never zeroed as a whole.
type tierScratch struct {
	vals   [countWindow]memsim.Stride
	counts [countWindow]int
	// next and sums hold lsp's candidate next strides and stride sums.
	next, sums [countWindow]memsim.Stride
}

// count tallies x among the n distinct values counted so far, returning
// x's new count and the new number of distinct values.
func (sc *tierScratch) count(x memsim.Stride, n int) (int, int) {
	for j := 0; j < n; j++ {
		if sc.vals[j] == x {
			sc.counts[j]++
			return sc.counts[j], n
		}
	}
	sc.vals[n], sc.counts[n] = x, 1
	return 1, n + 1
}

// dominantStride returns the stride occurring at least half times among
// strideA, strides (counted in that order), if any. SSP's "dominant"
// condition is occurrence ≥ L/2 (§III-D2).
func (sc *tierScratch) dominantStride(strides []memsim.Stride, strideA memsim.Stride, half int) (memsim.Stride, bool) {
	best, bestN := strideA, 1
	sc.vals[0], sc.counts[0] = strideA, 1
	n := 1
	for _, s := range strides {
		var c int
		c, n = sc.count(s, n)
		if c > bestN {
			best, bestN = s, c
		}
	}
	if bestN >= half {
		return best, true
	}
	return 0, false
}

// strideCount is one distinct stride of a stream's history window and
// how many times it occurs there.
type strideCount struct {
	s memsim.Stride
	n int
}

// strideCounts tallies the strides of a stream's history window, in no
// particular order. The trainer updates it as strides enter and leave
// the window, so SSP's dominance test reads one tally per distinct
// stride instead of recounting the window.
type strideCounts []strideCount

func (c *strideCounts) add(s memsim.Stride) {
	for i := range *c {
		if (*c)[i].s == s {
			(*c)[i].n++
			return
		}
	}
	*c = append(*c, strideCount{s: s, n: 1})
}

func (c *strideCounts) remove(s memsim.Stride) {
	t := *c
	for i := range t {
		if t[i].s != s {
			continue
		}
		if t[i].n--; t[i].n == 0 {
			last := len(t) - 1
			t[i] = t[last]
			*c = t[:last]
		}
		return
	}
}

// dominant answers dominantStride over the tallied window plus strideA
// whenever the top count has one holder. When two strides tie at a top
// count of at least half, the winner depends on the order they reached
// it, which the tallies do not keep: tie reports that the caller must
// scan the window instead.
func (c strideCounts) dominant(strideA memsim.Stride, half int) (s memsim.Stride, ok, tie bool) {
	nA := 1
	var top memsim.Stride
	topN, tied := 0, false
	for _, sc := range c {
		switch {
		case sc.s == strideA:
			nA += sc.n
		case sc.n > topN:
			top, topN, tied = sc.s, sc.n, false
		case sc.n == topN:
			tied = true
		}
	}
	switch {
	case nA > topN:
		return strideA, nA >= half, false
	case topN < half:
		return 0, false, false
	case nA == topN || tied:
		return 0, false, true
	}
	return top, true, false
}

// ssp runs Simple-Stream-based Prefetch: a dominant stride identifies a
// simple stream. It returns the stride to extrapolate with. counts
// tallies strides, the stream's full history window.
func (sc *tierScratch) ssp(counts strideCounts, strides []memsim.Stride, strideA memsim.Stride, historyLen int) (memsim.Stride, bool) {
	half := historyLen / 2
	s, ok, tie := counts.dominant(strideA, half)
	if tie {
		s, ok = sc.dominantStride(strides, strideA, half)
	}
	if !ok || s == 0 {
		return 0, false
	}
	return s, true
}

// lspResult carries LSP's two outputs (Algorithm 1).
type lspResult struct {
	strideTarget  memsim.Stride
	patternStride memsim.Stride
}

// lsp runs Ladder-Stream-based Prefetch (Algorithm 1). The target
// pattern is the latest M=2 consecutive strides {strides[L-2], strideA};
// every earlier occurrence of that pattern is a candidate. The next
// stride of the target is the mode of the candidates' next strides, and
// the ladder period (pattern_stride) is the mode of the page distances
// between consecutive candidate occurrences.
func (sc *tierScratch) lsp(vpns []memsim.VPN, strides []memsim.Stride, strideA memsim.Stride) (lspResult, bool) {
	l := len(vpns)
	if l < 4 || len(strides) != l-1 {
		return lspResult{}, false
	}
	pt0 := strides[l-2] // pattern_target[0]
	pt1 := strideA      // pattern_target[1]

	nextStrides := sc.next[:0]
	strideSums := sc.sums[:0]
	lastIndex := l - 2
	for i := l - 3; i >= 0; i-- {
		if strides[i] == pt0 && strides[i+1] == pt1 {
			if i+2 <= l-2 {
				nextStrides = append(nextStrides, strides[i+2])
			}
			strideSums = append(strideSums, memsim.StrideBetween(vpns[i], vpns[lastIndex]))
			lastIndex = i
		}
	}
	if len(nextStrides) == 0 || len(strideSums) == 0 {
		return lspResult{}, false
	}
	res := lspResult{
		strideTarget:  sc.mode(nextStrides),
		patternStride: sc.mode(strideSums),
	}
	if res.patternStride == 0 {
		return lspResult{}, false
	}
	return res, true
}

// mode returns the most frequent value of xs, by the tie rule above:
// the value that first reaches the top count scanning xs in order
// (candidates are gathered newest-first).
func (sc *tierScratch) mode(xs []memsim.Stride) memsim.Stride {
	n := 0
	best, bestN := xs[0], 0
	for _, x := range xs {
		var c int
		c, n = sc.count(x, n)
		if c > bestN {
			best, bestN = x, c
		}
	}
	return best
}

// rsp runs Ripple-Stream-based Prefetch (Algorithm 2): walking the
// history backwards, every point whose cumulative stride returns to
// within maxStride is a ripple page; when at least half the window
// ripples, the stream is a set of stride-1 simple streams distorted by
// out-of-order and across-stream hops, and the next page is VPN_A + i.
func rsp(strides []memsim.Stride, strideA memsim.Stride, historyLen int, maxStride int64) bool {
	rippleNum := 0
	var accumulate memsim.Stride
	if strideA.Abs() <= memsim.Stride(maxStride) {
		rippleNum++
		accumulate = 0
	}
	for i := len(strides) - 1; i >= 0; i-- {
		accumulate += strides[i]
		if accumulate.Abs() <= memsim.Stride(maxStride) {
			rippleNum++
			accumulate = 0
		}
	}
	return rippleNum >= historyLen/2
}

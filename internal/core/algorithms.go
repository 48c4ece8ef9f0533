package core

import "hopp/internal/memsim"

// This file holds the three tier algorithms as pure functions over a
// stream's VPN/stride history, mirroring §III-D2–4. The inputs follow
// the paper's convention: vpns holds the last L pages of the stream
// (oldest first), strides the L-1 derived strides, and strideA is the
// stride from vpns[L-1] to the newly arrived hot page — which has NOT
// yet been appended to the history.

// countWindow bounds the history length the frequency helpers below
// count over, in linear-scan arrays on the stack. Histories are
// HistoryLen-bounded (default 16) and NewTrainer rejects a HistoryLen
// above countWindow, so the arrays cover every history. Ties go to the
// first-seen value: the best only moves on a strictly greater count
// while scanning the input in order.
const countWindow = 64

// dominantStride returns the stride occurring at least ceil(half) times
// among strides ∪ {strideA}, if any. SSP's "dominant" condition is
// occurrence ≥ L/2 (§III-D2).
func dominantStride(strides []memsim.Stride, strideA memsim.Stride, half int) (memsim.Stride, bool) {
	var best memsim.Stride
	var bestN int
	uniform := true
	for _, s := range strides {
		if s != strideA {
			uniform = false
			break
		}
	}
	if uniform {
		// One distinct stride — the shape every steady stream produces.
		// Answering directly skips the counting scratch below, whose
		// zeroing otherwise dominates this function.
		best, bestN = strideA, len(strides)+1
	} else {
		var vals [countWindow]memsim.Stride
		var counts [countWindow]int
		vals[0], counts[0] = strideA, 1
		n := 1
		best, bestN = strideA, 1
		for _, s := range strides {
			j := 0
			for ; j < n; j++ {
				if vals[j] == s {
					break
				}
			}
			if j == n {
				vals[n] = s
				n++
			}
			counts[j]++
			if counts[j] > bestN {
				best, bestN = s, counts[j]
			}
		}
	}
	if bestN >= half {
		return best, true
	}
	return 0, false
}

// ssp runs Simple-Stream-based Prefetch: a dominant stride identifies a
// simple stream. It returns the stride to extrapolate with.
func ssp(strides []memsim.Stride, strideA memsim.Stride, historyLen int) (memsim.Stride, bool) {
	s, ok := dominantStride(strides, strideA, historyLen/2)
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
func lsp(vpns []memsim.VPN, strides []memsim.Stride, strideA memsim.Stride) (lspResult, bool) {
	l := len(vpns)
	if l < 4 || len(strides) != l-1 {
		return lspResult{}, false
	}
	pt0 := strides[l-2] // pattern_target[0]
	pt1 := strideA      // pattern_target[1]

	var nsBuf, ssBuf [countWindow]memsim.Stride
	nextStrides := nsBuf[:0]
	strideSums := ssBuf[:0]
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
		strideTarget:  mode(nextStrides),
		patternStride: mode(strideSums),
	}
	if res.patternStride == 0 {
		return lspResult{}, false
	}
	return res, true
}

// mode returns the most frequent value; ties break toward the value
// found earliest, i.e. the most recent occurrence (candidates are
// gathered newest-first).
func mode(xs []memsim.Stride) memsim.Stride {
	var vals [countWindow]memsim.Stride
	var counts [countWindow]int
	n := 0
	best, bestN := xs[0], 0
	for _, x := range xs {
		j := 0
		for ; j < n; j++ {
			if vals[j] == x {
				break
			}
		}
		if j == n {
			vals[n] = x
			n++
		}
		counts[j]++
		if counts[j] > bestN {
			best, bestN = x, counts[j]
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

package core

// The reference trainer and Markov predictor below are the linear-scan
// implementations the stream index replaced, kept verbatim but for
// their names: a 64-entry scan matches a page to its stream and picks
// the LRU victim by tick, and the tier helpers count the whole window
// in stack arrays on every call. FuzzTrainerMatchesNaive drives them
// beside the optimized ones.

import (
	"fmt"
	"math"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

type naiveEntry struct {
	valid   bool
	pid     memsim.PID
	vpns    []memsim.VPN    // oldest first, ≤ HistoryLen
	strides []memsim.Stride // len(vpns)-1
	tick    uint64
	gen     uint64
	offset  float64
	// streak counts consecutive unit-stride SSP predictions — §IV's
	// "stream is long enough" detector for bulk prefetching.
	streak int
	// bulkFence gates the next bulk request until the stream head has
	// consumed the previous window.
	bulkFence int64
	bulkArmed bool
}

func (e *naiveEntry) last() memsim.VPN { return e.vpns[len(e.vpns)-1] }

// naiveTrainer is the prefetch training framework (§III-D1): the Stream
// Training Table plus the adaptive three-tier prediction cascade, with
// the policy engine's per-stream offset state (§III-E).
type naiveTrainer struct {
	params  Params
	entries []naiveEntry
	tick    uint64
	nextGen uint64
	// pagesBuf backs non-bulk Prediction.Pages; reused across
	// predictions so the steady-state hot-page path stays off the heap
	// (see the lifetime note on Prediction.Pages).
	pagesBuf []memsim.VPN
	stats    TrainerStats
}

// newNaiveTrainer builds a trainer; zero param fields take paper defaults.
// It panics on a HistoryLen above countWindow (64), a programming error
// in experiment setup rather than a runtime condition.
func newNaiveTrainer(params Params) *naiveTrainer {
	params.fill()
	if params.HistoryLen > countWindow {
		panic(fmt.Sprintf("core: HistoryLen %d exceeds the %d-entry history bound", params.HistoryLen, countWindow))
	}
	return &naiveTrainer{
		params:  params,
		entries: make([]naiveEntry, params.StreamEntries),
	}
}

// Params returns the effective configuration.
func (t *naiveTrainer) Params() Params { return t.params }

// Stats returns a copy of the counters.
func (t *naiveTrainer) Stats() TrainerStats { return t.stats }

// Observe feeds one hot page record into the table and returns a
// prediction when a stream pattern is identified.
func (t *naiveTrainer) Observe(now vclock.Time, pid memsim.PID, vpn memsim.VPN) (Prediction, bool) {
	t.tick++
	t.stats.HotPages++

	idx := t.match(pid, vpn)
	if idx < 0 {
		t.insert(pid, vpn)
		return Prediction{}, false
	}
	e := &t.entries[idx]
	e.tick = t.tick
	if e.last() == vpn {
		// The HPD reported this page again: its entry was evicted and
		// the page turned hot once more, or the page came back at a
		// new PPN. Nothing new to learn.
		t.stats.Duplicates++
		return Prediction{}, false
	}
	strideA := memsim.StrideBetween(e.last(), vpn)

	var pred Prediction
	havePred := false
	if len(e.vpns) == t.params.HistoryLen {
		pred, havePred = t.predict(idx, vpn, strideA)
	}

	t.append(e, vpn, strideA)
	if havePred {
		t.stats.Predictions[pred.Tier]++
	}
	return pred, havePred
}

// match finds the stream this page belongs to: same PID and within
// Δ_stream pages of the stream's most recent VPN; the nearest stream
// wins when several qualify. Returns -1 when no stream matches.
func (t *naiveTrainer) match(pid memsim.PID, vpn memsim.VPN) int {
	best := -1
	var bestDist memsim.Stride = math.MaxInt64
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid || e.pid != pid {
			continue
		}
		d := memsim.StrideBetween(e.last(), vpn).Abs()
		if d <= memsim.Stride(t.params.DeltaStream) && d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func (t *naiveTrainer) insert(pid memsim.PID, vpn memsim.VPN) {
	victim := 0
	for i := range t.entries {
		if !t.entries[i].valid {
			victim = i
			break
		}
		if t.entries[i].tick < t.entries[victim].tick {
			victim = i
		}
	}
	e := &t.entries[victim]
	if e.valid {
		t.stats.StreamsEvicted++
	}
	t.nextGen++
	// Reuse the evicted entry's history backing: stream churn on
	// irregular workloads would otherwise allocate two slices per churn.
	vpns, strides := e.vpns[:0], e.strides[:0]
	if cap(vpns) < t.params.HistoryLen {
		vpns = make([]memsim.VPN, 0, t.params.HistoryLen)
		strides = make([]memsim.Stride, 0, t.params.HistoryLen-1)
	}
	*e = naiveEntry{
		valid:   true,
		pid:     pid,
		vpns:    append(vpns, vpn),
		strides: strides,
		tick:    t.tick,
		gen:     t.nextGen,
		offset:  t.params.Policy.InitialOffset,
	}
	t.stats.StreamsCreated++
}

func (t *naiveTrainer) append(e *naiveEntry, vpn memsim.VPN, strideA memsim.Stride) {
	if len(e.vpns) == t.params.HistoryLen {
		copy(e.vpns, e.vpns[1:])
		e.vpns[len(e.vpns)-1] = vpn
		copy(e.strides, e.strides[1:])
		e.strides[len(e.strides)-1] = strideA
		return
	}
	e.vpns = append(e.vpns, vpn)
	e.strides = append(e.strides, strideA)
}

// predict runs the three-tier cascade (§III-D1): SSP first, LSP when SSP
// finds no dominant stride, RSP as the last resort.
func (t *naiveTrainer) predict(idx int, vpn memsim.VPN, strideA memsim.Stride) (Prediction, bool) {
	e := &t.entries[idx]
	offset := int64(math.Round(e.offset))
	if offset < 1 {
		offset = 1
	}
	k := t.params.Policy.Intensity

	if t.params.EnableSSP {
		if stride, ok := naiveSSP(e.strides, strideA, t.params.HistoryLen); ok {
			if bulk, ok := t.tryBulk(idx, vpn, stride, offset); ok {
				return bulk, true
			}
			return t.build(idx, TierSSP, vpn, int64(stride), offset, k, 0)
		}
	}
	e.streak = 0
	if t.params.EnableLSP {
		if res, ok := naiveLSP(e.vpns, e.strides, strideA); ok {
			return t.build(idx, TierLSP, vpn, int64(res.patternStride), offset, k, int64(res.strideTarget))
		}
	}
	if t.params.EnableRSP {
		if rsp(e.strides, strideA, t.params.HistoryLen, t.params.MaxRippleStride) {
			return t.build(idx, TierRSP, vpn, 1, offset, k, 0)
		}
	}
	return Prediction{}, false
}

// tryBulk decides whether a unit-stride stream has earned a §IV bulk
// request: after Bulk.StreamLength consecutive stride-±1 predictions,
// one request covers the next Bulk.Pages pages; the next bulk arms only
// after the stream passes the current window.
func (t *naiveTrainer) tryBulk(idx int, vpn memsim.VPN, stride memsim.Stride, offset int64) (Prediction, bool) {
	e := &t.entries[idx]
	if !t.params.Bulk.Enable || (stride != 1 && stride != -1) {
		e.streak = 0
		return Prediction{}, false
	}
	e.streak++
	if e.streak < t.params.Bulk.StreamLength {
		return Prediction{}, false
	}
	dir := int64(stride)
	if e.bulkArmed && dir*int64(vpn) < e.bulkFence {
		return Prediction{}, false // previous window not consumed yet
	}
	pages := make([]memsim.VPN, 0, t.params.Bulk.Pages)
	for j := 0; j < t.params.Bulk.Pages; j++ {
		target := int64(vpn) + dir*(offset+int64(j))
		if target <= 0 || target > int64(memsim.MaxVPN) {
			break
		}
		pages = append(pages, memsim.VPN(target))
	}
	if len(pages) < t.params.Bulk.Pages/2 {
		return Prediction{}, false
	}
	e.bulkArmed = true
	e.bulkFence = dir * (int64(vpn) + dir*(offset+int64(len(pages))))
	t.stats.BulkPredictions++
	return Prediction{
		Stream: StreamRef{Index: idx, Gen: e.gen},
		Tier:   TierSSP,
		PID:    e.pid,
		Pages:  pages,
		Bulk:   true,
	}, true
}

// build materializes the prediction pages:
//
//	SSP: VPN_A + (i+j)·stride            (§III-D2)
//	LSP: VPN_A + stride_target + (i+j)·pattern_stride  (Algorithm 1 line 16)
//	RSP: VPN_A + (i+j)·1                 (Algorithm 2 line 12)
//
// where j ∈ [0, Intensity). Pages falling outside the valid VPN range
// are skipped.
func (t *naiveTrainer) build(idx int, tier Tier, vpn memsim.VPN, unit, offset int64, k int, fixed int64) (Prediction, bool) {
	e := &t.entries[idx]
	pages := t.pagesBuf[:0]
	for j := 0; j < k; j++ {
		target := int64(vpn) + fixed + (offset+int64(j))*unit
		if target <= 0 || target > int64(memsim.MaxVPN) {
			continue
		}
		pages = append(pages, memsim.VPN(target))
	}
	t.pagesBuf = pages
	if len(pages) == 0 {
		return Prediction{}, false
	}
	return Prediction{
		Stream: StreamRef{Index: idx, Gen: e.gen},
		Tier:   tier,
		PID:    e.pid,
		Pages:  pages,
	}, true
}

// Feedback applies timeliness feedback to a stream's prefetch offset
// (§III-E): T below T_min means the page barely made it — prefetch
// further ahead (i ← i·(1+α)); T above T_max means it sat idle too long
// — pull in (i ← i·(1−α)).
func (t *naiveTrainer) Feedback(ref StreamRef, lead vclock.Duration) {
	if !t.params.Policy.Adaptive {
		return
	}
	if ref.Index < 0 || ref.Index >= len(t.entries) {
		return
	}
	e := &t.entries[ref.Index]
	if !e.valid || e.gen != ref.Gen {
		return // stream was evicted and the slot reused
	}
	p := t.params.Policy
	switch {
	case lead < p.TMin:
		e.offset *= 1 + p.Alpha
		if e.offset > p.MaxOffset {
			e.offset = p.MaxOffset
		}
		t.stats.OffsetRaises++
	case lead > p.TMax:
		e.offset *= 1 - p.Alpha
		if e.offset < 1 {
			e.offset = 1
		}
		t.stats.OffsetLowers++
	}
}

// OffsetOf exposes a stream's current offset for tests and experiments.
func (t *naiveTrainer) OffsetOf(ref StreamRef) (float64, bool) {
	if ref.Index < 0 || ref.Index >= len(t.entries) {
		return 0, false
	}
	e := &t.entries[ref.Index]
	if !e.valid || e.gen != ref.Gen {
		return 0, false
	}
	return e.offset, true
}

// naiveMarkov is a second-order delta-correlation predictor over the hot
// page trace (in the lineage of GHB delta-correlation prefetchers): the
// last two per-stream deltas index a table of observed next deltas, and
// the most frequent one extrapolates the stream. It shares the STT's
// page-clustering front end via a per-PID last-page map, but learns
// arbitrary repeating delta patterns rather than the three named ones.
type naiveMarkov struct {
	params Params

	// last tracks each (PID, cluster) stream head. Clustering is by
	// Δ_stream distance, like the trainer's.
	streams []naiveMarkovStream
	tick    uint64

	// table maps a delta-pair context to next-delta counts.
	table map[[2]memsim.Stride]map[memsim.Stride]int

	stats TrainerStats
}

type naiveMarkovStream struct {
	valid  bool
	pid    memsim.PID
	last   memsim.VPN
	d1, d2 memsim.Stride // two most recent deltas, d2 newest
	warm   int
	tick   uint64
}

// newNaiveMarkov builds the predictor.
func newNaiveMarkov(params Params) *naiveMarkov {
	params.fill()
	return &naiveMarkov{
		params:  params,
		streams: make([]naiveMarkovStream, params.StreamEntries),
		table:   make(map[[2]memsim.Stride]map[memsim.Stride]int),
	}
}

// Name implements Algorithm.
func (m *naiveMarkov) Name() string { return "markov" }

// Stats returns counters in the trainer's format (Predictions land in
// the SSP slot; the tier taxonomy does not apply).
func (m *naiveMarkov) Stats() TrainerStats { return m.stats }

// Observe implements Algorithm.
func (m *naiveMarkov) Observe(now vclock.Time, pid memsim.PID, vpn memsim.VPN) (Prediction, bool) {
	m.tick++
	m.stats.HotPages++
	idx := m.match(pid, vpn)
	if idx < 0 {
		m.insert(pid, vpn)
		return Prediction{}, false
	}
	s := &m.streams[idx]
	s.tick = m.tick
	if s.last == vpn {
		m.stats.Duplicates++
		return Prediction{}, false
	}
	delta := memsim.StrideBetween(s.last, vpn)
	s.last = vpn

	var pred Prediction
	have := false
	if s.warm >= 2 {
		// Learn: context (d1,d2) → delta.
		ctx := [2]memsim.Stride{s.d1, s.d2}
		next := m.table[ctx]
		if next == nil {
			next = make(map[memsim.Stride]int)
			m.table[ctx] = next
		}
		next[delta]++
		// Predict from the new context (d2, delta).
		if best, ok := m.lookup([2]memsim.Stride{s.d2, delta}); ok {
			target := int64(vpn) + int64(best)
			if target > 0 && target <= int64(memsim.MaxVPN) {
				pred = Prediction{
					Stream: StreamRef{Index: idx, Gen: 0},
					Tier:   TierSSP,
					PID:    pid,
					Pages:  []memsim.VPN{memsim.VPN(target)},
				}
				have = true
				m.stats.Predictions[TierSSP]++
			}
		}
	}
	s.d1, s.d2 = s.d2, delta
	if s.warm < 2 {
		s.warm++
	}
	return pred, have
}

// lookup returns the most frequent next delta for a context, requiring
// at least two observations to avoid one-off noise.
func (m *naiveMarkov) lookup(ctx [2]memsim.Stride) (memsim.Stride, bool) {
	next := m.table[ctx]
	var best memsim.Stride
	bestN := 0
	for d, n := range next {
		if n > bestN || (n == bestN && d < best) {
			best, bestN = d, n
		}
	}
	return best, bestN >= 2
}

// Feedback implements Algorithm; the table-driven predictor has no
// offset to tune, so feedback is informational only.
func (m *naiveMarkov) Feedback(StreamRef, vclock.Duration) {}

func (m *naiveMarkov) match(pid memsim.PID, vpn memsim.VPN) int {
	best := -1
	bestDist := memsim.Stride(1 << 62)
	for i := range m.streams {
		s := &m.streams[i]
		if !s.valid || s.pid != pid {
			continue
		}
		d := memsim.StrideBetween(s.last, vpn).Abs()
		if d <= memsim.Stride(m.params.DeltaStream) && d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func (m *naiveMarkov) insert(pid memsim.PID, vpn memsim.VPN) {
	victim := 0
	for i := range m.streams {
		if !m.streams[i].valid {
			victim = i
			break
		}
		if m.streams[i].tick < m.streams[victim].tick {
			victim = i
		}
	}
	if m.streams[victim].valid {
		m.stats.StreamsEvicted++
	}
	m.streams[victim] = naiveMarkovStream{valid: true, pid: pid, last: vpn, tick: m.tick}
	m.stats.StreamsCreated++
}

// naiveDominantStride returns the stride occurring at least ceil(half) times
// among strides ∪ {strideA}, if any. SSP's "dominant" condition is
// occurrence ≥ L/2 (§III-D2).
func naiveDominantStride(strides []memsim.Stride, strideA memsim.Stride, half int) (memsim.Stride, bool) {
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

// naiveSSP runs Simple-Stream-based Prefetch: a dominant stride identifies a
// simple stream. It returns the stride to extrapolate with.
func naiveSSP(strides []memsim.Stride, strideA memsim.Stride, historyLen int) (memsim.Stride, bool) {
	s, ok := naiveDominantStride(strides, strideA, historyLen/2)
	if !ok || s == 0 {
		return 0, false
	}
	return s, true
}

// naiveLSP runs Ladder-Stream-based Prefetch (Algorithm 1). The target
// pattern is the latest M=2 consecutive strides {strides[L-2], strideA};
// every earlier occurrence of that pattern is a candidate. The next
// stride of the target is the mode of the candidates' next strides, and
// the ladder period (pattern_stride) is the mode of the page distances
// between consecutive candidate occurrences.
func naiveLSP(vpns []memsim.VPN, strides []memsim.Stride, strideA memsim.Stride) (lspResult, bool) {
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
		strideTarget:  naiveMode(nextStrides),
		patternStride: naiveMode(strideSums),
	}
	if res.patternStride == 0 {
		return lspResult{}, false
	}
	return res, true
}

// naiveMode returns the most frequent value; among tied values, the
// one that first reaches the top count.
func naiveMode(xs []memsim.Stride) memsim.Stride {
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

package core

import (
	"math"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// StreamRef identifies a live STT entry across evictions: feedback
// carrying a stale generation is ignored.
type StreamRef struct {
	Index int
	Gen   uint64
}

// Prediction is one prefetch decision handed to the execution engine.
type Prediction struct {
	Stream StreamRef
	Tier   Tier
	PID    memsim.PID
	// Pages are the VPNs to prefetch, Intensity-many, nearest first —
	// or the whole bulk window when Bulk is set.
	//
	// Lifetime: Pages may alias a scratch buffer owned by the producing
	// trainer and is valid only until its next Observe call. The
	// executor consumes predictions synchronously; callers that retain
	// one must copy Pages first.
	Pages []memsim.VPN
	// Bulk marks a §IV huge-space request: the executor should move the
	// whole window with a single transfer.
	Bulk bool
}

// TrainerStats counts training activity, feeding the per-tier
// experiments (Figs. 18–20).
type TrainerStats struct {
	HotPages        uint64
	Duplicates      uint64
	StreamsCreated  uint64
	StreamsEvicted  uint64
	Predictions     [4]uint64 // indexed by Tier
	BulkPredictions uint64
	OffsetRaises    uint64
	OffsetLowers    uint64
}

// sttEntry is a stream's history and policy state; its PID and head
// live in the trainer's streamIndex.
type sttEntry struct {
	vpns    []memsim.VPN    // oldest first, ≤ HistoryLen
	strides []memsim.Stride // len(vpns)-1
	counts  strideCounts    // tallies strides
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

// Trainer is the prefetch training framework (§III-D1): the Stream
// Training Table plus the adaptive three-tier prediction cascade, with
// the policy engine's per-stream offset state (§III-E).
type Trainer struct {
	params  Params
	streams streamIndex
	entries []sttEntry
	nextGen uint64
	// pagesBuf backs non-bulk Prediction.Pages; reused across
	// predictions so the steady-state hot-page path stays off the heap
	// (see the lifetime note on Prediction.Pages).
	pagesBuf []memsim.VPN
	scratch  tierScratch
	stats    TrainerStats
}

// NewTrainer builds a trainer; zero param fields take paper defaults.
// It panics with Validate's error on params Validate rejects, a
// programming error in experiment setup rather than a runtime
// condition.
func NewTrainer(params Params) *Trainer {
	if err := params.Validate(); err != nil {
		panic(err.Error())
	}
	params.fill()
	t := &Trainer{
		params:  params,
		entries: make([]sttEntry, params.StreamEntries),
	}
	t.streams.init(params)
	return t
}

// Stats returns a copy of the counters.
func (t *Trainer) Stats() TrainerStats { return t.stats }

// Observe feeds one hot page record into the table and returns a
// prediction when a stream pattern is identified. vpn is at most
// memsim.MaxVPN, as every RPT-translated page is.
func (t *Trainer) Observe(now vclock.Time, pid memsim.PID, vpn memsim.VPN) (Prediction, bool) {
	t.stats.HotPages++

	idx := t.streams.match(pid, vpn)
	if idx < 0 {
		t.insert(pid, vpn)
		return Prediction{}, false
	}
	t.streams.touch(idx)
	last := t.streams.head[idx]
	if last == vpn {
		// The HPD reported this page again: its entry was evicted and
		// the page turned hot once more, or the page came back at a
		// new PPN. Nothing new to learn.
		t.stats.Duplicates++
		return Prediction{}, false
	}
	e := &t.entries[idx]
	strideA := memsim.StrideBetween(last, vpn)

	var pred Prediction
	havePred := false
	if len(e.vpns) == t.params.HistoryLen {
		pred, havePred = t.predict(idx, vpn, strideA)
	}

	t.append(e, vpn, strideA)
	t.streams.advance(idx, vpn)
	if havePred {
		t.stats.Predictions[pred.Tier]++
	}
	return pred, havePred
}

func (t *Trainer) insert(pid memsim.PID, vpn memsim.VPN) {
	idx, evicted := t.streams.claim(pid, vpn)
	if evicted {
		t.stats.StreamsEvicted++
	}
	e := &t.entries[idx]
	t.nextGen++
	// Reuse the evicted entry's history backing: stream churn on
	// irregular workloads would otherwise allocate per churn.
	vpns, strides, counts := e.vpns[:0], e.strides[:0], e.counts[:0]
	if cap(vpns) < t.params.HistoryLen {
		vpns = make([]memsim.VPN, 0, t.params.HistoryLen)
		strides = make([]memsim.Stride, 0, t.params.HistoryLen-1)
		counts = make(strideCounts, 0, t.params.HistoryLen-1)
	}
	*e = sttEntry{
		vpns:    append(vpns, vpn),
		strides: strides,
		counts:  counts,
		gen:     t.nextGen,
		offset:  t.params.Policy.InitialOffset,
	}
	t.stats.StreamsCreated++
}

func (t *Trainer) append(e *sttEntry, vpn memsim.VPN, strideA memsim.Stride) {
	e.counts.add(strideA)
	if len(e.vpns) == t.params.HistoryLen {
		e.counts.remove(e.strides[0])
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
func (t *Trainer) predict(idx int, vpn memsim.VPN, strideA memsim.Stride) (Prediction, bool) {
	e := &t.entries[idx]
	offset := int64(math.Round(e.offset))
	if offset < 1 {
		offset = 1
	}
	k := t.params.Policy.Intensity

	if t.params.EnableSSP {
		if stride, ok := t.scratch.ssp(e.counts, e.strides, strideA, t.params.HistoryLen); ok {
			if bulk, ok := t.tryBulk(idx, vpn, stride, offset); ok {
				return bulk, true
			}
			return t.build(idx, TierSSP, vpn, int64(stride), offset, k, 0)
		}
	}
	e.streak = 0
	if t.params.EnableLSP {
		if res, ok := t.scratch.lsp(e.vpns, e.strides, strideA); ok {
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
func (t *Trainer) tryBulk(idx int, vpn memsim.VPN, stride memsim.Stride, offset int64) (Prediction, bool) {
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
		PID:    t.streams.pid[idx],
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
func (t *Trainer) build(idx int, tier Tier, vpn memsim.VPN, unit, offset int64, k int, fixed int64) (Prediction, bool) {
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
		Stream: StreamRef{Index: idx, Gen: t.entries[idx].gen},
		Tier:   tier,
		PID:    t.streams.pid[idx],
		Pages:  pages,
	}, true
}

// Feedback applies timeliness feedback to a stream's prefetch offset
// (§III-E): T below T_min means the page barely made it — prefetch
// further ahead (i ← i·(1+α)); T above T_max means it sat idle too long
// — pull in (i ← i·(1−α)).
func (t *Trainer) Feedback(ref StreamRef, lead vclock.Duration) {
	if !t.params.Policy.Adaptive {
		return
	}
	if !t.streams.valid(ref.Index) {
		return
	}
	e := &t.entries[ref.Index]
	if e.gen != ref.Gen {
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

// LiveStreams returns how many STT entries are valid.
func (t *Trainer) LiveStreams() int { return t.streams.n }

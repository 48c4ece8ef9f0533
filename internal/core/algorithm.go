package core

import (
	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// Algorithm is the pluggable prediction slot of the prefetch training
// framework. §III-D1 is explicit that the adaptive three-tier design
// "is just one solution in a large design space; advanced solutions
// like machine learning-based ones can also be enabled by full trace" —
// this interface is that enablement. Trainer (the paper's three-tier
// cascade) is the default implementation; Markov below is a
// delta-correlation alternative.
type Algorithm interface {
	// Name identifies the algorithm in output.
	Name() string
	// Observe consumes one hot page record and may return a prediction.
	Observe(now vclock.Time, pid memsim.PID, vpn memsim.VPN) (Prediction, bool)
	// Feedback delivers prefetch timeliness (first hit − arrival) for a
	// prediction's stream, for algorithms that self-tune.
	Feedback(ref StreamRef, lead vclock.Duration)
	// Stats returns the algorithm's observation and prediction counters.
	Stats() TrainerStats
}

// NewAlgorithm builds the prediction algorithm Params.Algorithm selects:
// Markov for AlgoMarkov, the three-tier trainer otherwise.
func NewAlgorithm(params Params) Algorithm {
	if params.Algorithm == AlgoMarkov {
		return NewMarkov(params)
	}
	return NewTrainer(params)
}

// Name implements Algorithm for the three-tier trainer.
func (t *Trainer) Name() string { return "three-tier" }

var _ Algorithm = (*Trainer)(nil)

// Markov is a second-order delta-correlation predictor over the hot
// page trace (in the lineage of GHB delta-correlation prefetchers): the
// last two per-stream deltas index a table of observed next deltas, and
// the most frequent one extrapolates the stream. It shares the STT's
// page-clustering front end (the streamIndex, clustering by Δ_stream
// distance), but learns arbitrary repeating delta patterns rather than
// the three named ones.
type Markov struct {
	params Params

	streams streamIndex
	deltas  []markovStream

	// table maps a delta-pair context to next-delta counts.
	table map[[2]memsim.Stride]map[memsim.Stride]int

	stats TrainerStats
}

// markovStream is a stream's delta context; its PID and head live in
// the streamIndex.
type markovStream struct {
	d1, d2 memsim.Stride // two most recent deltas, d2 newest
	warm   int
}

// NewMarkov builds the predictor. Like NewTrainer, it panics with
// Validate's error on params Validate rejects.
func NewMarkov(params Params) *Markov {
	if err := params.Validate(); err != nil {
		panic(err.Error())
	}
	params.fill()
	m := &Markov{
		params: params,
		deltas: make([]markovStream, params.StreamEntries),
		table:  make(map[[2]memsim.Stride]map[memsim.Stride]int),
	}
	m.streams.init(params)
	return m
}

// Name implements Algorithm.
func (m *Markov) Name() string { return "markov" }

// Stats returns counters in the trainer's format (Predictions land in
// the SSP slot; the tier taxonomy does not apply).
func (m *Markov) Stats() TrainerStats { return m.stats }

// Observe implements Algorithm.
func (m *Markov) Observe(now vclock.Time, pid memsim.PID, vpn memsim.VPN) (Prediction, bool) {
	m.stats.HotPages++
	idx := m.streams.match(pid, vpn)
	if idx < 0 {
		idx, evicted := m.streams.claim(pid, vpn)
		if evicted {
			m.stats.StreamsEvicted++
		}
		m.deltas[idx] = markovStream{}
		m.stats.StreamsCreated++
		return Prediction{}, false
	}
	m.streams.touch(idx)
	last := m.streams.head[idx]
	if last == vpn {
		m.stats.Duplicates++
		return Prediction{}, false
	}
	s := &m.deltas[idx]
	delta := memsim.StrideBetween(last, vpn)
	m.streams.advance(idx, vpn)

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
func (m *Markov) lookup(ctx [2]memsim.Stride) (memsim.Stride, bool) {
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
func (m *Markov) Feedback(StreamRef, vclock.Duration) {}

var _ Algorithm = (*Markov)(nil)

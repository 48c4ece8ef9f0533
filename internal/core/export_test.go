package core

import "hopp/internal/memsim"

// Observation points the tests read and production does not need.

// Stats returns counters in the trainer's format (Predictions land in
// the SSP slot; the tier taxonomy does not apply).
func (m *Markov) Stats() TrainerStats { return m.stats }

// Outstanding returns how many fetches are in flight or landed-unhit.
func (x *Executor) Outstanding() int { return x.reqs.Len() }

// OffsetOf exposes a stream's current offset.
func (t *Trainer) OffsetOf(ref StreamRef) (float64, bool) {
	if !t.streams.valid(ref.Index) {
		return 0, false
	}
	e := &t.entries[ref.Index]
	if e.gen != ref.Gen {
		return 0, false
	}
	return e.offset, true
}

// Inflight reports whether a fetch for key is outstanding (issued, not
// yet landed).
func (x *Executor) Inflight(key memsim.PageKey) bool {
	req, ok := x.reqs.Get(key.Pack())
	return ok && !req.landed
}

// IsPrefetched reports whether key is a landed, not-yet-hit prefetch.
func (x *Executor) IsPrefetched(key memsim.PageKey) bool {
	req, ok := x.reqs.Get(key.Pack())
	return ok && req.landed
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one traced interval. The spans of one op share Op (a sim
// point, a job ID, an ingest session ID, a regeneration); Parent links a
// layer's span to the span that caused it. Aggregated spans stand for
// many calls of one layer inside their parent: Calls counts them and
// End-Start is their summed busy time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
}

// trace is a traced run's recorder: spans kept in memory until exit,
// plus the per-request samples and counts the service-layer metrics are
// computed from. A nil *trace records nothing, which is what untraced
// runs pass around.
type trace struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	samples map[string][]float64
	counts  map[string]float64
}

func newTrace() *trace {
	return &trace{t0: time.Now(), samples: map[string][]float64{}, counts: map[string]float64{}}
}

// open starts a span and returns its ID (0 on a nil trace).
func (t *trace) open(parent int, op, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0).Nanoseconds(), Calls: 1})
	return id
}

// close ends span id.
func (t *trace) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// add records a finished span and returns its ID; busy is its duration,
// or the summed busy time of calls aggregated calls.
func (t *trace) add(parent int, op, name string, start time.Time, busy time.Duration, calls int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := start.Sub(t.t0).Nanoseconds()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: s, End: s + busy.Nanoseconds(), Calls: calls})
	return id
}

// sample appends one observation of a per-layer quantity.
func (t *trace) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[name] = append(t.samples[name], v)
}

// count adds n to a per-layer counter.
func (t *trace) count(name string, n float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += n
}

// has reports whether any sample of name was recorded.
func (t *trace) has(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.samples[name]) > 0
}

// get returns the samples recorded under name.
func (t *trace) get(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

// total returns a counter.
func (t *trace) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// writeSpans saves the spans as one JSON document.
func (t *trace) writeSpans(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

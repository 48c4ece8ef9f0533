package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hopp/internal/sim"
	"hopp/internal/workload"
)

// seedReq is quickReq with a distinct seed, so each call is a distinct
// cache key (a real run, not a hit).
func seedReq(seed int64) RunRequest {
	req := quickReq()
	req.Seed = seed
	return req
}

// instantSim is a runSim stub that completes immediately.
func instantSim(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
	return sim.Metrics{System: "test", CompletionTime: 1}, nil
}

// waitCounters polls until pred sees a satisfying snapshot.
func waitCounters(t *testing.T, e *Engine, pred func(MetricsSnapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if pred(e.Metrics()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition never reached; metrics: %+v", e.Metrics())
}

// Over-limit submissions must fail fast with ErrOverloaded and leave no
// registry entry behind (the fail-fast half of admission control).
func TestSubmitOverloadedRejectsFast(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, MaxQueue: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return sim.Metrics{System: "test"}, nil
		case <-ctx.Done():
			return sim.Metrics{}, ctx.Err()
		}
	}
	if _, err := e.Submit(seedReq(1)); err != nil {
		t.Fatal(err)
	}
	<-started // first run holds the only worker
	if _, err := e.Submit(seedReq(2)); err != nil {
		t.Fatalf("second submit (fills the queue): %v", err)
	}
	_, err := e.Submit(seedReq(3))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-limit submit = %v, want ErrOverloaded", err)
	}
	if got := len(e.Runs()); got != 2 {
		t.Fatalf("rejected submission left a registry entry: %d runs, want 2", got)
	}
	m := e.Metrics()
	if got := m.Jobs[KindSim].Rejected; got != 1 {
		t.Fatalf("sim jobs rejected = %d, want 1", got)
	}
	if got := m.Jobs[KindSim].Submitted; got != 2 {
		t.Fatalf("sim jobs submitted = %d, want 2 (rejections don't count)", got)
	}
	close(release)
}

// A run exceeding the per-run deadline must land in StateFailed with the
// distinct timeout error, move the runs_timed_out counter, and free its
// worker for the next run.
func TestRunTimeoutFailsRunAndFreesWorker(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, RunTimeout: 30 * time.Millisecond})
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		if req.Seed == 2 { // the follow-up run: well-behaved
			return sim.Metrics{System: "test", CompletionTime: 7}, nil
		}
		<-ctx.Done() // pathological run: only the deadline frees it
		return sim.Metrics{}, ctx.Err()
	}
	stuck, err := e.Submit(seedReq(1))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, e, stuck.ID)
	if final.State != StateFailed {
		t.Fatalf("timed-out run state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, ErrRunTimeout.Error()) {
		t.Fatalf("timed-out run error = %q, want it to mention %q", final.Error, ErrRunTimeout)
	}
	m := e.Metrics()
	if kc := m.Jobs[KindSim]; kc.TimedOut != 1 || kc.Failed != 1 {
		t.Fatalf("timeout counters = timed_out %d failed %d, want 1/1", kc.TimedOut, kc.Failed)
	}
	// The worker must be free: a normal run completes.
	next, err := e.Submit(seedReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, e, next.ID); st.State != StateDone {
		t.Fatalf("run after timeout = %s (%s), want done (worker not freed?)", st.State, st.Error)
	}
}

// Cancellation must stay distinguishable from a timeout: a user Cancel
// under an armed -run-timeout still lands in StateCancelled.
func TestCancelIsNotMistakenForTimeout(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, RunTimeout: time.Hour})
	started := make(chan struct{})
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		close(started)
		<-ctx.Done()
		return sim.Metrics{}, ctx.Err()
	}
	st, err := e.Submit(seedReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := e.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, e, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("cancelled run state = %s, want cancelled", final.State)
	}
	if got := e.Metrics().Jobs[KindSim].TimedOut; got != 0 {
		t.Fatalf("sim jobs timed out = %d after a plain cancel, want 0", got)
	}
}

// Terminal runs past the retention count are evicted oldest-first and
// their IDs answer ErrUnknownRun (the 404-after-eviction contract). One
// worker makes finish order equal submission order, so the first run
// submitted is the first one evicted.
func TestRegistryEvictsTerminalRunsPastRetention(t *testing.T) {
	const retain, total = 4, 20
	e := newTestEngine(t, Options{Workers: 1, RetainRuns: retain})
	e.runSim = instantSim
	var first string
	for i := 0; i < total; i++ {
		st, err := e.Submit(seedReq(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st.ID
		}
	}
	waitCounters(t, e, func(m MetricsSnapshot) bool { return m.Jobs[KindSim].Completed == total })
	m := e.Metrics()
	if m.RegistrySize != retain {
		t.Fatalf("registry_size = %d after %d runs, want %d", m.RegistrySize, total, retain)
	}
	if m.RegistryEvictions != total-retain {
		t.Fatalf("registry_evictions = %d, want %d", m.RegistryEvictions, total-retain)
	}
	if got := len(e.Runs()); got != retain {
		t.Fatalf("Runs() lists %d entries, want %d", got, retain)
	}
	if _, err := e.Status(first); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("Status(evicted) = %v, want ErrUnknownRun", err)
	}
	if err := e.Cancel(first); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("Cancel(evicted) = %v, want ErrUnknownRun", err)
	}
}

// Age-based eviction drops finished runs even while the count bound has
// room, triggered lazily by the next submission.
func TestRegistryEvictsByAge(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, RetainRuns: 100, RetainAge: 20 * time.Millisecond})
	e.runSim = instantSim
	old, err := e.Submit(seedReq(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, old.ID)
	time.Sleep(60 * time.Millisecond)
	fresh, err := e.Submit(seedReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Status(old.ID); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("Status(aged-out) = %v, want ErrUnknownRun", err)
	}
	if st := waitDone(t, e, fresh.ID); st.State != StateDone {
		t.Fatalf("fresh run = %s, want done", st.State)
	}
}

// The sustained-load regression: submitting 10x the retention limit must
// leave registry size, queue depth, and the heap bounded — the leak this
// PR exists to close. Overloaded submissions are retried, modeling a
// well-behaved client honoring 429 + Retry-After.
func TestSustainedLoadStaysBounded(t *testing.T) {
	const (
		workers  = 4
		retain   = 32
		maxQueue = 16
		total    = 10 * retain
	)
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	e := newTestEngine(t, Options{Workers: workers, RetainRuns: retain, MaxQueue: maxQueue})
	e.runSim = instantSim
	maxRegistry, maxDepth := 0, 0
	for i := 0; i < total; i++ {
		for {
			_, err := e.Submit(seedReq(int64(i + 1)))
			if err == nil {
				break
			}
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("submit %d: %v", i, err)
			}
			time.Sleep(time.Millisecond) // the Retry-After dance
		}
		m := e.Metrics()
		if m.RegistrySize > maxRegistry {
			maxRegistry = m.RegistrySize
		}
		if m.QueueDepth > maxDepth {
			maxDepth = m.QueueDepth
		}
	}
	waitCounters(t, e, func(m MetricsSnapshot) bool { return m.Jobs[KindSim].Completed == total })

	// Queue depth plateaus at its bound; the registry at retention plus
	// whatever can legitimately be in flight.
	if maxDepth > maxQueue {
		t.Fatalf("queue depth peaked at %d, bound is %d", maxDepth, maxQueue)
	}
	if limit := retain + maxQueue + workers; maxRegistry > limit {
		t.Fatalf("registry peaked at %d, bound is %d", maxRegistry, limit)
	}
	final := e.Metrics()
	if final.RegistrySize != retain {
		t.Fatalf("registry_size settled at %d, want %d", final.RegistrySize, retain)
	}
	if final.RegistryEvictions != total-retain {
		t.Fatalf("registry_evictions = %d, want %d", final.RegistryEvictions, total-retain)
	}

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Generous bound: the point is catching O(total-submissions) leaks
	// (the old registry grew without limit), not byte-exact accounting.
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 32<<20 {
		t.Fatalf("heap grew %d bytes over %d runs; registry leak?", growth, total)
	}
}

// The Retry-After hint must adapt: floor before any observation, mean
// wall time once runs complete, scaled by backlog per worker, capped at
// a minute. Counters are seeded directly so the arithmetic is exact.
func TestRetryAfterHintAdaptsToLoad(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, MaxQueue: 8})
	if got := e.RetryAfterHint(); got != time.Second {
		t.Fatalf("hint with no completed runs = %v, want the 1s floor", got)
	}

	// Mean wall time 2s, empty queue, 1 worker: hint is one mean run.
	seedWallTime(e, 4, 8*time.Second)
	if got := e.RetryAfterHint(); got != 2*time.Second {
		t.Fatalf("hint with mean 2s and empty queue = %v, want 2s", got)
	}
	if got := e.RetryAfterSeconds(); got != 2 {
		t.Fatalf("RetryAfterSeconds = %d, want 2", got)
	}

	// Fast runs (mean 1ms) must not produce a sub-second hint.
	seedWallTime(e, 1000, time.Second)
	if got := e.RetryAfterHint(); got != time.Second {
		t.Fatalf("hint with mean 1ms = %v, want clamped to the 1s floor", got)
	}

	// A pathological mean is capped so clients never park for hours.
	seedWallTime(e, 1, 3*time.Hour)
	if got := e.RetryAfterHint(); got != time.Minute {
		t.Fatalf("hint with mean 3h = %v, want the 60s cap", got)
	}

	// The snapshot carries the same value scrapers see.
	seedWallTime(e, 2, 6*time.Second)
	if got := e.Metrics().RetryAfterHintNS; got != (3 * time.Second).Nanoseconds() {
		t.Fatalf("metrics retry_after_hint_ns = %d, want %d", got, (3 * time.Second).Nanoseconds())
	}
}

// seedWallTime sets the completions and wall time the Retry-After hint
// averages, under the lock that guards them.
func seedWallTime(e *Engine, completed uint64, wall time.Duration) {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	e.ctr.jobs[KindSim].Completed = completed
	e.ctr.RunWallNS = wall.Nanoseconds()
}

// The hint must grow with queue depth: each queued run adds one mean
// wall time per worker to the estimated drain time.
func TestRetryAfterHintScalesWithQueueDepth(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, MaxQueue: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return sim.Metrics{System: "test"}, nil
		case <-ctx.Done():
			return sim.Metrics{}, ctx.Err()
		}
	}
	defer close(release)
	// One run occupies the worker, then four fill the queue.
	if _, err := e.Submit(seedReq(1)); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 4; i++ {
		if _, err := e.Submit(seedReq(int64(i + 2))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitCounters(t, e, func(m MetricsSnapshot) bool { return m.QueueDepth == 4 })
	seedWallTime(e, 1, 2*time.Second)
	// mean 2s × (4 queued + 1 incoming) / 1 worker.
	if got := e.RetryAfterHint(); got != 10*time.Second {
		t.Fatalf("hint with mean 2s and depth 4 = %v, want 10s", got)
	}
}

// HTTP surface of admission control: over-limit submissions get 429 with
// a Retry-After header.
func TestHTTP429OnOverload(t *testing.T) {
	e, srv := newTestServer(t, Options{Workers: 1, MaxQueue: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return sim.Metrics{System: "test"}, nil
		case <-ctx.Done():
			return sim.Metrics{}, ctx.Err()
		}
	}
	defer close(release)
	if _, code := postRun(t, srv.URL, seedReq(1)); code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	<-started
	if _, code := postRun(t, srv.URL, seedReq(2)); code != http.StatusAccepted {
		t.Fatalf("queue-filling submit = %d, want 202", code)
	}
	// Seed the wall-time counters so the adaptive header has a known
	// value: mean 5s × (1 queued + 1 incoming) / 1 worker = 10s.
	seedWallTime(e, 1, 5*time.Second)
	b, _ := json.Marshal(seedReq(3))
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "10" {
		t.Fatalf("429 Retry-After = %q, want %q (adaptive hint)", ra, "10")
	}
}

// HTTP surface of retention: an evicted run's ID answers 404.
func TestHTTP404AfterEviction(t *testing.T) {
	e, srv := newTestServer(t, Options{Workers: 1, RetainRuns: 1})
	e.runSim = instantSim
	first, _ := postRun(t, srv.URL, seedReq(1))
	pollRun(t, srv.URL, first.ID)
	second, _ := postRun(t, srv.URL, seedReq(2))
	pollRun(t, srv.URL, second.ID) // 1 worker: first finished before this, so it's evicted
	resp := getJSON(t, srv.URL+"/v1/runs/"+first.ID, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET evicted run = %d, want 404", resp.StatusCode)
	}
	resp = getJSON(t, srv.URL+"/v1/runs/"+second.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET retained run = %d, want 200", resp.StatusCode)
	}
}

package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"hopp/internal/experiments"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := NewEngine(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = e.Shutdown(ctx)
	})
	return e
}

// quickReq is a real but fast simulation request.
func quickReq() RunRequest {
	frac := 0.25
	return RunRequest{Workload: "sequential", System: "fastswap", Frac: &frac, Seed: 1, Quick: true}
}

// waitDone polls a run to a terminal state with a test deadline.
func waitDone(t *testing.T, e *Engine, id string) RunStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := e.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

func TestNormalizeCanonicalizes(t *testing.T) {
	fr := 0.5
	a, keyA, err := RunRequest{Workload: "NPB-MG", System: "HoPP", Seed: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, keyB, err := RunRequest{Workload: " npb-mg ", System: "hopp", Frac: &fr, Seed: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB {
		t.Fatalf("equivalent requests keyed differently:\n  %s\n  %s", keyA, keyB)
	}
	if a.Workload != "npb-mg" || a.System != "hopp" || *a.Frac != 0.5 {
		t.Fatalf("normalized form wrong: %+v", a)
	}
}

func TestNormalizeRejectsBadRequests(t *testing.T) {
	bad, nan := 1.5, math.NaN()
	cases := []struct {
		req  RunRequest
		want error
	}{
		{RunRequest{Workload: "nope", System: "hopp"}, ErrUnknownWorkload},
		{RunRequest{Workload: "npb-mg", System: "nope"}, ErrUnknownSystem},
		{RunRequest{Workload: "npb-mg", System: "hopp", Frac: &bad}, ErrBadFrac},
		{RunRequest{Workload: "npb-mg", System: "hopp", Frac: &nan}, ErrBadFrac},
	}
	for _, c := range cases {
		if _, _, err := c.req.Normalize(); !errors.Is(err, c.want) {
			t.Errorf("Normalize(%+v) error = %v, want %v", c.req, err, c.want)
		}
	}
}

func TestSubmitWaitFetch(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	st, err := e.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached {
		t.Fatal("first submission reported cached")
	}
	final := waitDone(t, e, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if len(final.Metrics) == 0 {
		t.Fatal("done run has no metrics")
	}
	if final.SimNS <= 0 || final.WallNS <= 0 {
		t.Fatalf("missing timing: sim=%d wall=%d", final.SimNS, final.WallNS)
	}
	m := e.Metrics()
	sim := m.Jobs[KindSim]
	if sim.Submitted != 1 || sim.Completed != 1 || m.CacheMisses != 1 {
		t.Fatalf("counters off: %+v", m)
	}
}

func TestRepeatedRequestIsCacheHit(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	first, err := e.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	firstDone := waitDone(t, e, first.ID)

	// Same simulation spelled differently: canonicalization must map it
	// onto the cached entry.
	req := quickReq()
	req.Workload = "SEQUENTIAL"
	second, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("repeat = {cached:%v state:%s}, want cached+done", second.Cached, second.State)
	}
	if !bytes.Equal(second.Metrics, firstDone.Metrics) {
		t.Fatal("cache hit returned different bytes than the run that populated it")
	}
	if second.SimNS != firstDone.SimNS {
		t.Fatalf("cached SimNS %d != original %d", second.SimNS, firstDone.SimNS)
	}
	m := e.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("cache counters = hits %d misses %d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if got := m.Jobs[KindSim].Started; got != 1 {
		t.Fatalf("cache hit started a worker: jobs started = %d", got)
	}
}

// Result hits live exactly as long as the job holding the result: once
// retention evicts it, its key is gone from cache_size and an identical
// submission computes the same bytes again.
func TestResultHitsEndWithRetention(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, RetainRuns: 1})
	first := waitDone(t, e, must(t)(e.Submit(seedReq(1))).ID)
	waitDone(t, e, must(t)(e.Submit(seedReq(2))).ID) // evicts the first
	if got := e.Metrics().CacheSize; got != 1 {
		t.Fatalf("cache_size after eviction = %d, want 1", got)
	}
	again := must(t)(e.Submit(seedReq(1)))
	if again.Cached {
		t.Fatal("evicted result still served as a cache hit")
	}
	if st := waitDone(t, e, again.ID); !bytes.Equal(st.Metrics, first.Metrics) {
		t.Fatal("recomputed result differs from the evicted one")
	}
	if got := e.Metrics().Jobs[KindSim].Started; got != 3 {
		t.Fatalf("jobs started = %d, want 3", got)
	}
}

// The acceptance-criteria regression: N concurrent clients submitting
// the identical (config, seed) must all receive byte-identical
// serialized Metrics, regardless of worker interleaving or whether
// their submission raced the cache fill.
func TestDeterminismAcrossConcurrentClients(t *testing.T) {
	const clients = 8
	e := newTestEngine(t, Options{Workers: 4})
	var wg sync.WaitGroup
	results := make([][]byte, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := e.Submit(quickReq())
			if err != nil {
				errs[i] = err
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			final, err := e.Wait(ctx, st.ID)
			if err != nil {
				errs[i] = err
				return
			}
			if final.State != StateDone {
				errs[i] = fmt.Errorf("state %s: %s", final.State, final.Error)
				return
			}
			results[i] = final.Metrics
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("client %d got different metrics than client 0:\n%s\nvs\n%s",
				i, results[i], results[0])
		}
	}
}

func TestCancelQueuedRun(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	release := make(chan struct{})
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		select {
		case <-release:
			return sim.Metrics{System: "test"}, nil
		case <-ctx.Done():
			return sim.Metrics{}, ctx.Err()
		}
	}
	first, err := e.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(second.ID); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	st := waitDone(t, e, second.ID)
	if st.State != StateCancelled {
		t.Fatalf("queued-cancel state = %s, want cancelled", st.State)
	}
	close(release)
	if st := waitDone(t, e, first.ID); st.State != StateDone {
		t.Fatalf("first run state = %s, want done", st.State)
	}
	if got := e.Metrics().Jobs[KindSim].Cancelled; got != 1 {
		t.Fatalf("sim jobs cancelled = %d, want 1", got)
	}
}

func TestCancelRunningRun(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	started := make(chan struct{})
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		close(started)
		<-ctx.Done()
		return sim.Metrics{}, ctx.Err()
	}
	st, err := e.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := e.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	final := waitDone(t, e, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if err := e.Cancel(st.ID); !errors.Is(err, ErrNotCancellable) {
		t.Fatalf("Cancel finished run = %v, want ErrNotCancellable", err)
	}
}

func TestShutdownDrainsInFlightRuns(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		time.Sleep(20 * time.Millisecond)
		return sim.Metrics{System: "test"}, nil
	}
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := e.Submit(quickReq())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range ids {
		st, err := e.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("run %s state = %s after drain, want done", id, st.State)
		}
	}
	if _, err := e.Submit(quickReq()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Shutdown = %v, want ErrClosed", err)
	}
}

func TestShutdownDeadlineAbortsStuckRuns(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	started := make(chan struct{})
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		close(started)
		<-ctx.Done() // only a cancelled base context frees this run
		return sim.Metrics{}, ctx.Err()
	}
	st, err := e.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	final, err := e.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("stuck run state = %s after forced shutdown, want cancelled", final.State)
	}
}

func TestExperimentJobCachesRenderedOutput(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	var calls int
	e.runExp = func(ctx context.Context, exp experiments.Experiment, opts experiments.Options) ([]experiments.Table, error) {
		calls++
		return []experiments.Table{{Title: "T", Header: []string{"a"}, Rows: [][]string{{"1"}}}}, nil
	}
	req := ExperimentRequest{Experiment: "fig9", Seed: 1, Quick: true}
	st, err := e.SubmitExperiment(req)
	if err != nil {
		t.Fatal(err)
	}
	first := waitDone(t, e, st.ID)
	second, err := e.SubmitExperiment(req)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !second.Cached || second.State != StateDone {
		t.Fatalf("experiment executed %d times, resubmit %+v; want 1 and a cache hit", calls, second)
	}
	if first.Output != second.Output || first.Output == "" {
		t.Fatalf("cached output diverged:\n%q\nvs\n%q", first.Output, second.Output)
	}
	if _, err := e.SubmitExperiment(ExperimentRequest{Experiment: "nope"}); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("unknown experiment error = %v", err)
	}
}

func TestStatusUnknownRun(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	if _, err := e.Status("r999999"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("Status = %v, want ErrUnknownRun", err)
	}
	if err := e.Cancel("r999999"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("Cancel = %v, want ErrUnknownRun", err)
	}
}

func TestRunsListedInSubmissionOrder(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	var want []string
	for i := 0; i < 3; i++ {
		req := quickReq()
		req.Seed = int64(i + 1) // distinct keys: all real runs
		st, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st.ID)
	}
	runs := e.Runs()
	if len(runs) != len(want) {
		t.Fatalf("Runs() = %d entries, want %d", len(runs), len(want))
	}
	for i, r := range runs {
		if r.ID != want[i] {
			t.Fatalf("Runs()[%d] = %s, want %s", i, r.ID, want[i])
		}
	}
}

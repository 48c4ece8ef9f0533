package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hopp/internal/sim"
	"hopp/internal/workload"
)

// quickSweep is a small real grid: 1 workload × 2 systems × 2 fracs =
// 4 points sharing one frozen stream.
func quickSweep() SweepRequest {
	return SweepRequest{
		Workloads: []string{"sequential"},
		Systems:   []string{"fastswap", "noprefetch"},
		Fracs:     []float64{0.25, 0.5},
		Seeds:     []int64{1},
		Quick:     true,
	}
}

// waitSweep polls a sweep parent to a terminal state.
func waitSweep(t *testing.T, e *Engine, id string) RunStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := e.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	if st.Sweep == nil {
		t.Fatalf("job %s has no sweep aggregate: %+v", id, st)
	}
	return st
}

// parkSweepSims replaces the shared-stream hook with one that parks
// every invocation until release fires (or the job's context ends),
// counting invocations and signalling each pickup on started. The
// cleanup releases too — registered BEFORE the engine's own Shutdown
// cleanup (LIFO), so a forgotten release cannot wedge the drain.
func parkSweepSims(t *testing.T, e *Engine) (calls *atomic.Int64, started chan struct{}, release func()) {
	t.Helper()
	calls = &atomic.Int64{}
	started = make(chan struct{}, 64)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	e.runSim = func(ctx context.Context, req RunRequest, gen *workload.Base) (sim.Metrics, error) {
		calls.Add(1)
		started <- struct{}{}
		select {
		case <-gate:
			return runSimulation(ctx, req, gen)
		case <-ctx.Done():
			return sim.Metrics{}, ctx.Err()
		}
	}
	return calls, started, release
}

// waitStarted blocks until n parked simulations have been picked up.
func waitStarted(t *testing.T, started chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d of %d parked sims started", i, n)
		}
	}
}

func TestSweepPointsCartesianOrder(t *testing.T) {
	req := SweepRequest{
		Workloads: []string{"NPB-MG", " sequential "},
		Systems:   []string{"hopp", "fastswap"},
		Fracs:     []float64{0.25, 0.5},
		Seeds:     []int64{1, 2},
	}
	norm, points, err := req.Points()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Expand != ExpandCartesian {
		t.Fatalf("default expand = %q, want cartesian", norm.Expand)
	}
	if len(points) != 16 {
		t.Fatalf("expanded %d points, want 16", len(points))
	}
	// Nesting order is workload → system → frac → seed; names normalize.
	if points[0].Workload != "npb-mg" || points[0].System != "hopp" || *points[0].Frac != 0.25 || points[0].Seed != 1 {
		t.Fatalf("point 0 = %+v", points[0])
	}
	if points[1].Seed != 2 {
		t.Fatalf("point 1 should advance seed first, got %+v", points[1])
	}
	if points[8].Workload != "sequential" {
		t.Fatalf("point 8 should advance workload last, got %+v", points[8])
	}
	// Expansion is deterministic: a second call yields identical points.
	_, again, err := req.Points()
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if points[i].Workload != again[i].Workload || points[i].System != again[i].System ||
			*points[i].Frac != *again[i].Frac || points[i].Seed != again[i].Seed {
			t.Fatalf("re-expansion diverged at %d", i)
		}
	}
}

func TestSweepPointsZipAndDefaults(t *testing.T) {
	req := SweepRequest{
		Workloads: []string{"npb-mg", "sequential", "npb-cg"},
		Systems:   []string{"hopp"},
		Expand:    ExpandZip,
	}
	norm, points, err := req.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("zip expanded %d points, want 3", len(points))
	}
	for i, p := range points {
		if p.System != "hopp" || *p.Frac != 0.5 || p.Seed != 1 {
			t.Fatalf("point %d did not broadcast defaults: %+v", i, p)
		}
	}
	if norm.Fracs[0] != 0.5 || norm.Seeds[0] != 1 {
		t.Fatalf("defaults not echoed: %+v", norm)
	}
}

func TestSweepPointsRejectsBadGrids(t *testing.T) {
	cases := []struct {
		name string
		req  SweepRequest
		want error
	}{
		{"no workloads", SweepRequest{Systems: []string{"hopp"}}, ErrBadSweep},
		{"no systems", SweepRequest{Workloads: []string{"npb-mg"}}, ErrBadSweep},
		{"bad expand", SweepRequest{Workloads: []string{"npb-mg"}, Systems: []string{"hopp"}, Expand: "diagonal"}, ErrBadSweep},
		{"zip mismatch", SweepRequest{Workloads: []string{"npb-mg", "npb-cg"}, Systems: []string{"hopp"}, Fracs: []float64{0.1, 0.2, 0.3}, Expand: ExpandZip}, ErrBadSweep},
		{"unknown workload", SweepRequest{Workloads: []string{"nope"}, Systems: []string{"hopp"}}, ErrUnknownWorkload},
		{"unknown system", SweepRequest{Workloads: []string{"npb-mg"}, Systems: []string{"nope"}}, ErrUnknownSystem},
		{"bad frac", SweepRequest{Workloads: []string{"npb-mg"}, Systems: []string{"hopp"}, Fracs: []float64{1.5}}, ErrBadFrac},
	}
	for _, c := range cases {
		if _, _, err := c.req.Points(); !errors.Is(err, c.want) {
			t.Errorf("%s: error = %v, want %v", c.name, err, c.want)
		}
	}
}

// The tentpole lifecycle: one submission fans out into sim children
// under a parent job, every point simulates, and the aggregate plus the
// per-point results stream land deterministically.
func TestSweepLifecycle(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	st, err := e.SubmitSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindSweep || st.Sweep == nil || st.Sweep.Total != 4 {
		t.Fatalf("submitted sweep = %+v", st)
	}
	if len(st.Sweep.Children) != 4 {
		t.Fatalf("children = %v", st.Sweep.Children)
	}

	final := waitSweep(t, e, st.ID)
	if final.State != StateDone {
		t.Fatalf("sweep state = %s (%s), want done", final.State, final.Error)
	}
	if final.Sweep.Done != 4 || final.Sweep.Failed != 0 || final.Sweep.Lost != 0 {
		t.Fatalf("aggregate = %+v", final.Sweep)
	}
	if final.Progress != 4 {
		t.Fatalf("parent progress = %d, want 4", final.Progress)
	}

	// Children are ordinary sim jobs: pollable by ID, tied back to the
	// parent, metrics attached.
	for i, id := range final.Sweep.Children {
		cs, err := e.Status(id)
		if err != nil {
			t.Fatalf("child %d: %v", i, err)
		}
		if cs.Kind != KindSim || cs.Parent != st.ID {
			t.Fatalf("child %d = %+v, want sim child of %s", i, cs, st.ID)
		}
		if cs.State != StateDone || len(cs.Metrics) == 0 {
			t.Fatalf("child %d not done with metrics: %+v", i, cs)
		}
	}

	// The results stream serves every point, terminal, in expansion
	// order, coordinates echoed.
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		pt, terminal, err := e.SweepPointAt(ctx, st.ID, i, false)
		if err != nil || !terminal {
			t.Fatalf("point %d: terminal=%v err=%v", i, terminal, err)
		}
		if pt.Index != i || pt.ID != final.Sweep.Children[i] || pt.State != StateDone || len(pt.Metrics) == 0 {
			t.Fatalf("point %d = %+v", i, pt)
		}
		if pt.Workload != "sequential" {
			t.Fatalf("point %d workload = %q", i, pt.Workload)
		}
	}

	m := e.Metrics()
	if m.SweepPointsTotal != 4 || m.SweepPointsCompleted != 4 || m.SweepPointsFailed != 0 {
		t.Fatalf("sweep point counters: %+v", m)
	}
	sw := m.Jobs[KindSweep]
	if sw.Submitted != 1 || sw.Started != 1 || sw.Completed != 1 {
		t.Fatalf("jobs_* kind=sweep: %+v", sw)
	}
	if simc := m.Jobs[KindSim]; simc.Submitted != 4 || simc.Completed != 4 {
		t.Fatalf("jobs_* kind=sim: %+v", simc)
	}
}

// The acceptance invariant: a sweep of N points over W distinct
// (workload, seed) streams generates exactly W access streams.
func TestSweepGeneratesOneStreamPerWorkload(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 4})
	req := SweepRequest{
		Workloads: []string{"sequential", "random"},
		Systems:   []string{"fastswap", "noprefetch"},
		Fracs:     []float64{0.25, 0.5},
		Seeds:     []int64{1},
		Quick:     true,
	}
	st, err := e.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, e, st.ID)
	if final.State != StateDone {
		t.Fatalf("sweep state = %s (%s)", final.State, final.Error)
	}
	m := e.Metrics()
	if m.SweepPointsTotal != 8 || m.SweepPointsCompleted != 8 {
		t.Fatalf("points: %+v", m)
	}
	if m.SweepStreamsBuilt != 2 {
		t.Fatalf("streams built = %d for 8 points over 2 workloads, want exactly 2", m.SweepStreamsBuilt)
	}
}

// A sweep child's result must be byte-identical to a standalone run of
// the same request on a fresh engine — the shared frozen stream is an
// optimization, never an observable behavior change.
func TestSweepChildByteIdenticalToStandalone(t *testing.T) {
	sweeper := newTestEngine(t, Options{Workers: 2})
	st, err := sweeper.SubmitSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, sweeper, st.ID)
	if final.State != StateDone {
		t.Fatalf("sweep state = %s (%s)", final.State, final.Error)
	}

	solo := newTestEngine(t, Options{Workers: 2})
	_, points, err := quickSweep().Points()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range final.Sweep.Children {
		cs, err := sweeper.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := solo.Submit(points[i])
		if err != nil {
			t.Fatal(err)
		}
		sd := waitDone(t, solo, ss.ID)
		if sd.State != StateDone {
			t.Fatalf("standalone point %d: %s (%s)", i, sd.State, sd.Error)
		}
		if string(cs.Metrics) != string(sd.Metrics) {
			t.Fatalf("point %d diverged:\nsweep:      %s\nstandalone: %s", i, cs.Metrics, sd.Metrics)
		}
	}
}

// Duplicate points across overlapping sweeps simulate once: the second
// sweep's children follow the first's in-flight jobs and inherit their
// results as cache-hit children.
func TestOverlappingSweepsSimulateOnce(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	calls, _, release := parkSweepSims(t, e)

	first, err := e.SubmitSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.SubmitSweep(quickSweep()) // identical grid, while in flight
	if err != nil {
		t.Fatal(err)
	}
	release()

	f1 := waitSweep(t, e, first.ID)
	f2 := waitSweep(t, e, second.ID)
	if f1.State != StateDone || f2.State != StateDone {
		t.Fatalf("states: %s / %s", f1.State, f2.State)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("simulations executed = %d for 8 points over 4 unique requests, want 4", got)
	}
	if f2.Sweep.Cached != 4 {
		t.Fatalf("second sweep cached = %d, want all 4", f2.Sweep.Cached)
	}
	for _, id := range f2.Sweep.Children {
		cs, err := e.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if cs.State != StateDone || !cs.Cached || len(cs.Metrics) == 0 {
			t.Fatalf("follower child %s = %+v, want cached done with metrics", id, cs)
		}
	}
	m := e.Metrics()
	if m.SweepPointsTotal != 8 || m.SweepPointsCached != 4 || m.SweepPointsCompleted != 8 {
		t.Fatalf("dedupe counters: total=%d cached=%d completed=%d",
			m.SweepPointsTotal, m.SweepPointsCached, m.SweepPointsCompleted)
	}
}

// Points already in the result cache are born done at submission; a
// fully cached grid completes before SubmitSweep returns.
func TestSweepFullyCachedCompletesAtSubmission(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	warm, err := e.SubmitSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, e, warm.ID)

	st, err := e.SubmitSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("fully cached sweep state at submission = %s, want done", st.State)
	}
	if st.Sweep.Cached != 4 || st.Sweep.Done != 4 {
		t.Fatalf("aggregate = %+v", st.Sweep)
	}
}

// One giant sweep must not monopolize the shared queue: its fan-out is
// paced to the worker count, so a single-run client keeps being
// admitted and completing while the sweep grinds on. (Name matches the
// loadcheck gate's test filter.)
func TestSweepFairnessUnderFanout(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2, MaxQueue: 4})
	_, started, release := parkSweepSims(t, e)

	// 8 unique points against a queue bound of 4: an unpaced fan-out
	// would flood the queue and shed every other client with 429. The
	// window keeps the sweep's pool presence at the worker count.
	sweep, err := e.SubmitSweep(SweepRequest{
		Workloads: []string{"sequential", "random"},
		Systems:   []string{"fastswap", "noprefetch"},
		Fracs:     []float64{0.25},
		Seeds:     []int64{1, 2},
		Quick:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.pool.QueueDepth() + e.pool.Active(); got > 2 {
		t.Fatalf("sweep put %d jobs in the pool, window is 2", got)
	}
	waitStarted(t, started, 2) // both workers now parked on sweep children

	// Another client's single runs are still admitted: the queue has
	// room precisely because the sweep only holds `workers` slots.
	var singles []string
	for seed := int64(10); seed < 13; seed++ {
		req := quickReq()
		req.Seed = seed
		st, err := e.Submit(req)
		if err != nil {
			t.Fatalf("single run seed %d rejected during sweep: %v", seed, err)
		}
		singles = append(singles, st.ID)
	}

	ps, err := e.SweepStatus(sweep.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ps.State.Terminal() {
		t.Fatalf("sweep finished while its sims were parked: %+v", ps)
	}

	// Once workers free up, the FIFO queue serves the singles ahead of
	// the sweep's refill — they finish even though 6 sweep points are
	// still pending.
	release()
	for i, id := range singles {
		if got := waitDone(t, e, id); got.State != StateDone {
			t.Fatalf("single run %d: %s (%s)", i, got.State, got.Error)
		}
	}
	final := waitSweep(t, e, sweep.ID)
	if final.State != StateDone || final.Sweep.Done != 8 {
		t.Fatalf("sweep after release = %s %+v", final.State, final.Sweep)
	}
}

// Cancelling the parent aborts the whole fan-out: parked children
// unwind cancelled, pending ones never start, and the parent lands
// cancelled.
func TestSweepCancelPropagatesToChildren(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	_, _, release := parkSweepSims(t, e)
	st, err := e.SubmitSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	release()
	final := waitSweep(t, e, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("sweep state = %s, want cancelled", final.State)
	}
	for _, id := range final.Sweep.Children {
		cs, err := e.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if cs.State != StateCancelled {
			t.Fatalf("child %s = %s, want cancelled", id, cs.State)
		}
	}
	if err := e.Cancel(st.ID); !errors.Is(err, ErrNotCancellable) {
		t.Fatalf("second cancel = %v, want ErrNotCancellable", err)
	}
	if m := e.Metrics(); m.SweepPointsFailed != 4 {
		t.Fatalf("sweep_points_failed = %d, want 4", m.SweepPointsFailed)
	}
}

// A grid past -max-sweep-points is rejected whole: no parent, no
// children, no registry growth.
func TestSweepTooLargeRejectedWithoutSideEffects(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, MaxSweepPoints: 3})
	req := quickSweep() // 4 points > bound 3
	if _, err := e.SubmitSweep(req); !errors.Is(err, ErrSweepTooLarge) {
		t.Fatalf("error = %v, want ErrSweepTooLarge", err)
	}
	if m := e.Metrics(); m.RegistrySize != 0 || m.SweepPointsTotal != 0 {
		t.Fatalf("rejected sweep left state behind: %+v", m)
	}
	if m := e.Metrics(); m.MaxSweepPoints != 3 {
		t.Fatalf("max_sweep_points gauge = %d, want 3", m.MaxSweepPoints)
	}
}

// Sweep admission is all-or-nothing against the queue bound: when the
// initial window cannot fit, the submission sheds with ErrOverloaded
// and leaves nothing behind.
func TestSweepAdmissionAllOrNothing(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2, MaxQueue: 1})
	// Occupy both workers with parked singles, then hold the queue at
	// its bound with a third.
	started := make(chan struct{}, 8)
	gate := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(gate) }) })
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		started <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return sim.Metrics{}, ctx.Err()
	}
	// One at a time: with the bound at 1, each must be dequeued by a
	// worker before the next fits.
	for seed := int64(1); seed <= 2; seed++ {
		req := quickReq()
		req.Seed = seed
		if _, err := e.Submit(req); err != nil {
			t.Fatalf("filler submit: %v", err)
		}
		waitStarted(t, started, 1)
	}
	req := quickReq()
	req.Seed = 3
	if _, err := e.Submit(req); err != nil { // sits in the queue: depth 1 = bound
		t.Fatalf("filler submit: %v", err)
	}
	before := e.Metrics()
	if _, err := e.SubmitSweep(quickSweep()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("error = %v, want ErrOverloaded", err)
	}
	m := e.Metrics()
	if m.RegistrySize != before.RegistrySize {
		t.Fatalf("rejected sweep grew the registry: %d -> %d", before.RegistrySize, m.RegistrySize)
	}
	if m.CacheHits != before.CacheHits || m.CacheMisses != before.CacheMisses {
		t.Fatalf("rejected sweep moved the cache counters: hits %d -> %d, misses %d -> %d",
			before.CacheHits, m.CacheHits, before.CacheMisses, m.CacheMisses)
	}
	if m.Jobs[KindSweep].Rejected != 1 {
		t.Fatalf("jobs_rejected kind=sweep = %d, want 1", m.Jobs[KindSweep].Rejected)
	}
}

// The sweep lookup surface only speaks sweeps: sim job IDs answer
// ErrNotSweep, unknown IDs ErrUnknownRun.
func TestSweepLookupRejectsOtherKinds(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	st, err := e.Submit(quickReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, st.ID)
	if _, err := e.SweepStatus(st.ID); !errors.Is(err, ErrNotSweep) {
		t.Fatalf("SweepStatus(sim) = %v, want ErrNotSweep", err)
	}
	if _, err := e.SweepGroups(st.ID); !errors.Is(err, ErrNotSweep) {
		t.Fatalf("SweepGroups(sim) = %v, want ErrNotSweep", err)
	}
	if _, err := e.SweepStatus("r999999"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("SweepStatus(unknown) = %v, want ErrUnknownRun", err)
	}
	if _, _, err := e.SweepPointAt(context.Background(), st.ID, 0, false); !errors.Is(err, ErrNotSweep) {
		t.Fatalf("SweepPointAt(sim) = %v, want ErrNotSweep", err)
	}
}

// A failing point fails the parent but never hides the rest: the other
// points complete and stream normally.
func TestSweepPartialFailure(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	e.runSim = func(ctx context.Context, req RunRequest, gen *workload.Base) (sim.Metrics, error) {
		if req.System == "noprefetch" && *req.Frac == 0.5 {
			return sim.Metrics{}, fmt.Errorf("injected point failure")
		}
		return runSimulation(ctx, req, gen)
	}
	st, err := e.SubmitSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, e, st.ID)
	if final.State != StateFailed {
		t.Fatalf("sweep state = %s, want failed", final.State)
	}
	if final.Sweep.Done != 3 || final.Sweep.Failed != 1 {
		t.Fatalf("aggregate = %+v", final.Sweep)
	}
	if m := e.Metrics(); m.SweepPointsCompleted != 3 || m.SweepPointsFailed != 1 {
		t.Fatalf("counters: %+v", m)
	}
	var failed int
	for i := range final.Sweep.Children {
		pt, terminal, err := e.SweepPointAt(context.Background(), st.ID, i, false)
		if err != nil || !terminal {
			t.Fatalf("point %d: %v", i, err)
		}
		if pt.State == StateFailed {
			failed++
			if pt.Error == "" {
				t.Fatalf("failed point %d has no error", i)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("results stream shows %d failed points, want 1", failed)
	}
}

// Duplicate points inside one grid collapse onto one simulation within
// the sweep itself.
func TestSweepInternalDuplicatesCollapse(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	calls, _, release := parkSweepSims(t, e)
	release()
	st, err := e.SubmitSweep(SweepRequest{
		Workloads: []string{"sequential", "sequential"},
		Systems:   []string{"fastswap"},
		Fracs:     []float64{0.25},
		Quick:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, e, st.ID)
	if final.State != StateDone || final.Sweep.Total != 2 {
		t.Fatalf("sweep = %s %+v", final.State, final.Sweep)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("duplicate point simulated %d times, want 1", got)
	}
	if final.Sweep.Cached != 1 {
		t.Fatalf("cached = %d, want 1 (the duplicate)", final.Sweep.Cached)
	}
}

// parkNoPrefetch makes e run fastswap points for real and park
// noprefetch points until the test ends or their job is cancelled.
func parkNoPrefetch(t *testing.T, e *Engine) {
	gate := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(gate) }) })
	e.runSim = func(ctx context.Context, req RunRequest, gen *workload.Base) (sim.Metrics, error) {
		if req.System == "noprefetch" {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return sim.Metrics{}, ctx.Err()
		}
		return runSimulation(ctx, req, gen)
	}
}

// Satellite: a daemon restart mid-sweep. The journal holds the parent's
// submission entry plus every child that finished before the crash;
// replay serves those children byte-identically, reports the parent
// failed (never a zombie in-progress job), and accounts the unfinished
// points as lost.
func TestJournalReplayMidSweep(t *testing.T) {
	var buf syncBuffer
	e1 := newTestEngine(t, Options{Workers: 2, Journal: NewJournal(&buf)})
	// fastswap points complete; noprefetch points park until "the crash".
	parkNoPrefetch(t, e1)

	// Cartesian order puts both fastswap points (0, 1) ahead of the
	// noprefetch ones, and the window is 2, so exactly children 0 and 1
	// run and finish while 2 and 3 are still pending.
	st, err := e1.SubmitSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	done := st.Sweep.Children[:2]
	var before []RunStatus
	for _, id := range done {
		cs := waitDone(t, e1, id)
		if cs.State != StateDone {
			t.Fatalf("pre-crash child %s: %s (%s)", id, cs.State, cs.Error)
		}
		before = append(before, cs)
	}
	// Three writes on disk: the parent's submission entry plus the two
	// finished children. The parked points never reach the journal.
	waitCounters(t, e1, func(m MetricsSnapshot) bool { return m.JournalWrites == 3 })

	data, err := io.ReadAll(buf.reader())
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh engine replays the crashed daemon's journal.
	e2 := newTestEngine(t, Options{Workers: 2})
	stats, err := e2.ReplayJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recovered != 3 || stats.Malformed != 0 {
		t.Fatalf("stats = %+v, want 3 recovered", stats)
	}

	// The parent is terminal — failed, explicitly attributed to the
	// restart — not a zombie that polls forever.
	ps, err := e2.SweepStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ps.State != StateFailed || ps.Error == "" {
		t.Fatalf("replayed parent = %s (%q), want failed with cause", ps.State, ps.Error)
	}
	if ps.Sweep.Done != 2 || ps.Sweep.Lost != 2 {
		t.Fatalf("replayed aggregate = %+v, want 2 done / 2 lost", ps.Sweep)
	}
	for _, r := range e2.Runs() {
		if !r.State.Terminal() {
			t.Fatalf("zombie after replay: %+v", r)
		}
	}

	// Finished children come back byte-identical...
	for i, id := range done {
		cs, err := e2.Status(id)
		if err != nil {
			t.Fatalf("replayed child %s: %v", id, err)
		}
		if cs.State != StateDone || string(cs.Metrics) != string(before[i].Metrics) {
			t.Fatalf("child %s diverged across restart:\nbefore: %s\nafter:  %s", id, before[i].Metrics, cs.Metrics)
		}
		if cs.Parent != st.ID {
			t.Fatalf("replayed child %s lost its parent link: %+v", id, cs)
		}
	}
	// ...and the results stream reports every point: the finished ones
	// terminal with metrics, the lost ones terminal with a cause.
	for i := 0; i < 4; i++ {
		pt, terminal, err := e2.SweepPointAt(context.Background(), st.ID, i, false)
		if err != nil || !terminal {
			t.Fatalf("replayed point %d: terminal=%v err=%v", i, terminal, err)
		}
		if i < 2 && (pt.State != StateDone || len(pt.Metrics) == 0) {
			t.Fatalf("recovered point %d = %+v", i, pt)
		}
		if i >= 2 && (pt.State == StateDone || pt.Error == "") {
			t.Fatalf("lost point %d must be terminal-with-cause, got %+v", i, pt)
		}
	}

	// The recovered results are back in the result cache: resubmitting a
	// finished point is a hit, born done with the pre-crash bytes.
	_, points, err := quickSweep().Points()
	if err != nil {
		t.Fatal(err)
	}
	hit, err := e2.Submit(points[0])
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != StateDone || !hit.Cached || string(hit.Metrics) != string(before[0].Metrics) {
		t.Fatalf("post-replay resubmit = %+v, want cache hit with pre-crash bytes", hit)
	}
}

// A leader cancelled by a forced drain cannot hand its point on: the
// pool is closed, so every follower's promotion fails in turn and each
// lands cancelled — none is left queued behind a dead leader, and the
// sweep settles.
func TestFollowersSettleWhenPromotionFails(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	started, release := gatedSim(t, e)
	defer release()
	must(t)(e.Submit(seedReq(1)))
	waitStarted(t, started, 1)
	sw := must(t)(e.SubmitSweep(seedSweep(1, 1)))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, ErrDrainIncomplete) {
		t.Fatalf("Shutdown = %v, want ErrDrainIncomplete", err)
	}
	st, err := e.Status(sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() || st.Sweep.Cancelled != 2 {
		t.Fatalf("sweep = %s %+v, want terminal with both points cancelled", st.State, st.Sweep)
	}
}

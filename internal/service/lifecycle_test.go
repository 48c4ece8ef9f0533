package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"hopp/internal/hmtt"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// gatedSim parks every simulation until release fires (or the job's
// context ends), signalling each pickup on started; released runs finish
// instantly.
func gatedSim(t *testing.T, e *Engine) (started chan struct{}, release func()) {
	t.Helper()
	started = make(chan struct{}, 16)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	e.runSim = func(ctx context.Context, req RunRequest, gen *workload.Base) (sim.Metrics, error) {
		started <- struct{}{}
		select {
		case <-gate:
			return instantSim(ctx, req, gen)
		case <-ctx.Done():
			return sim.Metrics{}, ctx.Err()
		}
	}
	return started, release
}

// seedSweep is a one-system grid over quickReq's point, one child per
// seed, so child i shares its cache key with seedReq(seeds[i]).
func seedSweep(seeds ...int64) SweepRequest {
	q := quickReq()
	return SweepRequest{
		Workloads: []string{q.Workload},
		Systems:   []string{q.System},
		Fracs:     []float64{*q.Frac},
		Seeds:     seeds,
		Quick:     true,
	}
}

// must unwraps a submission's (status, error), failing the test on
// error: must(t)(e.Submit(req)).
func must(t *testing.T) func(RunStatus, error) RunStatus {
	return func(st RunStatus, err error) RunStatus {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
}

// Every way a job can end, each on a fresh engine, pinned to the exact
// lifecycle counters it leaves behind: cached and follower completions
// are not "completed", timeouts and panics are subsets of "failed", and
// sweep points count once per child.
func TestTerminalPathCounters(t *testing.T) {
	type points struct{ total, cached, completed, failed uint64 }
	cases := []struct {
		name   string
		opts   Options
		drive  func(t *testing.T, e *Engine)
		jobs   map[JobKind]JobCounters
		points points
	}{
		{
			name: "done",
			drive: func(t *testing.T, e *Engine) {
				e.runSim = instantSim
				waitDone(t, e, must(t)(e.Submit(seedReq(1))).ID)
			},
			jobs: map[JobKind]JobCounters{KindSim: {Submitted: 1, Started: 1, Completed: 1}},
		},
		{
			name: "cache hit",
			drive: func(t *testing.T, e *Engine) {
				e.runSim = instantSim
				waitDone(t, e, must(t)(e.Submit(seedReq(1))).ID)
				if st := must(t)(e.Submit(seedReq(1))); !st.Cached || st.State != StateDone {
					t.Fatalf("resubmit = %+v, want cached done", st)
				}
			},
			jobs: map[JobKind]JobCounters{KindSim: {Submitted: 2, Started: 1, Completed: 1}},
		},
		{
			name: "experiment done and cached",
			drive: func(t *testing.T, e *Engine) {
				e.runExp = fakeTables
				waitDone(t, e, must(t)(e.SubmitExperiment(expReq(1))).ID)
				if st := must(t)(e.SubmitExperiment(expReq(1))); !st.Cached {
					t.Fatalf("resubmit = %+v, want cached", st)
				}
			},
			jobs: map[JobKind]JobCounters{KindExperiment: {Submitted: 2, Started: 1, Completed: 1}},
		},
		{
			name: "follower inherits leader result",
			drive: func(t *testing.T, e *Engine) {
				started, release := gatedSim(t, e)
				must(t)(e.Submit(seedReq(1)))
				waitStarted(t, started, 1)
				sw := must(t)(e.SubmitSweep(seedSweep(1)))
				release()
				if st := waitSweep(t, e, sw.ID); st.State != StateDone || st.Sweep.Cached != 1 {
					t.Fatalf("sweep = %s %+v, want done with 1 cached point", st.State, st.Sweep)
				}
			},
			jobs: map[JobKind]JobCounters{
				KindSim:   {Submitted: 2, Started: 1, Completed: 1},
				KindSweep: {Submitted: 1, Started: 1, Completed: 1},
			},
			points: points{total: 1, cached: 1, completed: 1},
		},
		{
			name: "standalone follower inherits leader result",
			drive: func(t *testing.T, e *Engine) {
				started, release := gatedSim(t, e)
				must(t)(e.Submit(seedReq(1)))
				waitStarted(t, started, 1)
				dup := must(t)(e.Submit(seedReq(1)))
				release()
				if st := waitDone(t, e, dup.ID); st.State != StateDone || !st.Cached {
					t.Fatalf("identical submission = %s cached=%v, want done and cached", st.State, st.Cached)
				}
			},
			jobs: map[JobKind]JobCounters{KindSim: {Submitted: 2, Started: 1, Completed: 1}},
		},
		{
			name: "follower promoted after leader cancel",
			drive: func(t *testing.T, e *Engine) {
				started, release := gatedSim(t, e)
				leader := must(t)(e.Submit(seedReq(1)))
				waitStarted(t, started, 1)
				sw := must(t)(e.SubmitSweep(seedSweep(1)))
				if err := e.Cancel(leader.ID); err != nil {
					t.Fatal(err)
				}
				waitStarted(t, started, 1) // the promoted follower runs
				release()
				if st := waitSweep(t, e, sw.ID); st.State != StateDone || st.Sweep.Cached != 0 {
					t.Fatalf("sweep = %s %+v, want done with 0 cached points", st.State, st.Sweep)
				}
			},
			jobs: map[JobKind]JobCounters{
				KindSim:   {Submitted: 2, Started: 2, Completed: 1, Cancelled: 1},
				KindSweep: {Submitted: 1, Started: 1, Completed: 1},
			},
			points: points{total: 1, completed: 1},
		},
		{
			name: "cancel while queued",
			opts: Options{Workers: 1},
			drive: func(t *testing.T, e *Engine) {
				started, release := gatedSim(t, e)
				first := must(t)(e.Submit(seedReq(1)))
				waitStarted(t, started, 1)
				queued := must(t)(e.Submit(seedReq(2)))
				if err := e.Cancel(queued.ID); err != nil {
					t.Fatal(err)
				}
				release()
				waitDone(t, e, first.ID)
				if st := waitDone(t, e, queued.ID); st.State != StateCancelled {
					t.Fatalf("queued job = %s, want cancelled", st.State)
				}
			},
			jobs: map[JobKind]JobCounters{KindSim: {Submitted: 2, Started: 1, Completed: 1, Cancelled: 1}},
		},
		{
			name: "cancel while running",
			drive: func(t *testing.T, e *Engine) {
				started, _ := gatedSim(t, e)
				st := must(t)(e.Submit(seedReq(1)))
				waitStarted(t, started, 1)
				if err := e.Cancel(st.ID); err != nil {
					t.Fatal(err)
				}
				if got := waitDone(t, e, st.ID); got.State != StateCancelled {
					t.Fatalf("running job = %s, want cancelled", got.State)
				}
			},
			jobs: map[JobKind]JobCounters{KindSim: {Submitted: 1, Started: 1, Cancelled: 1}},
		},
		{
			name: "timeout",
			opts: Options{RunTimeout: 20 * time.Millisecond},
			drive: func(t *testing.T, e *Engine) {
				e.runSim = stuckUntilCancelSim
				waitDone(t, e, must(t)(e.Submit(seedReq(1))).ID)
			},
			jobs: map[JobKind]JobCounters{KindSim: {Submitted: 1, Started: 1, Failed: 1, TimedOut: 1}},
		},
		{
			name: "panic",
			drive: func(t *testing.T, e *Engine) {
				e.runSim = func(context.Context, RunRequest, *workload.Base) (sim.Metrics, error) {
					panic("poisoned run")
				}
				waitDone(t, e, must(t)(e.Submit(seedReq(1))).ID)
			},
			jobs: map[JobKind]JobCounters{KindSim: {Submitted: 1, Started: 1, Failed: 1, Panicked: 1}},
		},
		{
			name: "sweep completes",
			drive: func(t *testing.T, e *Engine) {
				e.runSim = instantSim
				waitSweep(t, e, must(t)(e.SubmitSweep(seedSweep(1, 2))).ID)
			},
			jobs: map[JobKind]JobCounters{
				KindSim:   {Submitted: 2, Started: 2, Completed: 2},
				KindSweep: {Submitted: 1, Started: 1, Completed: 1},
			},
			points: points{total: 2, completed: 2},
		},
		{
			name: "sweep cache hit at admission",
			drive: func(t *testing.T, e *Engine) {
				e.runSim = instantSim
				waitDone(t, e, must(t)(e.Submit(seedReq(1))).ID)
				waitSweep(t, e, must(t)(e.SubmitSweep(seedSweep(1, 2))).ID)
			},
			jobs: map[JobKind]JobCounters{
				KindSim:   {Submitted: 3, Started: 2, Completed: 2},
				KindSweep: {Submitted: 1, Started: 1, Completed: 1},
			},
			points: points{total: 2, cached: 1, completed: 2},
		},
		{
			name: "sweep fails",
			drive: func(t *testing.T, e *Engine) {
				e.runSim = func(ctx context.Context, req RunRequest, gen *workload.Base) (sim.Metrics, error) {
					if req.Seed == 2 {
						return sim.Metrics{}, errors.New("bad point")
					}
					return instantSim(ctx, req, gen)
				}
				if st := waitSweep(t, e, must(t)(e.SubmitSweep(seedSweep(1, 2))).ID); st.State != StateFailed {
					t.Fatalf("sweep = %s, want failed", st.State)
				}
			},
			jobs: map[JobKind]JobCounters{
				KindSim:   {Submitted: 2, Started: 2, Completed: 1, Failed: 1},
				KindSweep: {Submitted: 1, Started: 1, Failed: 1},
			},
			points: points{total: 2, completed: 1, failed: 1},
		},
		{
			name: "sweep cancelled",
			opts: Options{Workers: 1},
			drive: func(t *testing.T, e *Engine) {
				started, _ := gatedSim(t, e)
				sw := must(t)(e.SubmitSweep(seedSweep(1, 2)))
				waitStarted(t, started, 1)
				if err := e.Cancel(sw.ID); err != nil {
					t.Fatal(err)
				}
				if st := waitSweep(t, e, sw.ID); st.State != StateCancelled {
					t.Fatalf("sweep = %s, want cancelled", st.State)
				}
			},
			jobs: map[JobKind]JobCounters{
				KindSim:   {Submitted: 2, Started: 1, Cancelled: 2},
				KindSweep: {Submitted: 1, Started: 1, Cancelled: 1},
			},
			points: points{total: 2, failed: 2},
		},
		{
			name: "ingest close",
			opts: ingestOpts(),
			drive: func(t *testing.T, e *Engine) {
				st := openIngestT(t, e, 16)
				putAll(t, e, st.ID, encodeTrace(32, 0, nil), 10*hmtt.RecordSize)
				closeAndWaitDone(t, e, st.ID)
			},
			jobs: map[JobKind]JobCounters{KindIngest: {Submitted: 1, Started: 1, Completed: 1}},
		},
		{
			name: "ingest cancel",
			opts: ingestOpts(),
			drive: func(t *testing.T, e *Engine) {
				st := openIngestT(t, e, 16)
				if err := e.Cancel(st.ID); err != nil {
					t.Fatal(err)
				}
				if got := waitIngest(t, e, st.ID, func(s RunStatus) bool { return s.State.Terminal() }); got.State != StateCancelled {
					t.Fatalf("session = %s, want cancelled", got.State)
				}
			},
			jobs: map[JobKind]JobCounters{KindIngest: {Submitted: 1, Started: 1, Cancelled: 1}},
		},
		{
			name: "ingest expiry",
			opts: Options{Workers: 1, IngestIdleTimeout: 20 * time.Millisecond},
			drive: func(t *testing.T, e *Engine) {
				st := openIngestT(t, e, 16)
				if got := waitIngest(t, e, st.ID, func(s RunStatus) bool { return s.State.Terminal() }); got.State != StateFailed {
					t.Fatalf("session = %s, want failed", got.State)
				}
			},
			jobs: map[JobKind]JobCounters{KindIngest: {Submitted: 1, Started: 1, Failed: 1}},
		},
		{
			name: "ingest drain",
			opts: ingestOpts(),
			drive: func(t *testing.T, e *Engine) {
				st := openIngestT(t, e, 16)
				putAll(t, e, st.ID, encodeTrace(32, 0, nil), 10*hmtt.RecordSize)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := e.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
				if got, _ := e.IngestStatusByID(st.ID); got.State != StateFailed {
					t.Fatalf("session = %s, want failed", got.State)
				}
			},
			jobs: map[JobKind]JobCounters{KindIngest: {Submitted: 1, Started: 1, Failed: 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, tc.opts)
			tc.drive(t, e)
			m := e.Metrics()
			for _, k := range jobKinds {
				if got, want := m.Jobs[k], tc.jobs[k]; got != want {
					t.Errorf("jobs.%s = %+v, want %+v", k, got, want)
				}
			}
			got := points{m.SweepPointsTotal, m.SweepPointsCached, m.SweepPointsCompleted, m.SweepPointsFailed}
			if got != tc.points {
				t.Errorf("sweep_points {total cached completed failed} = %+v, want %+v", got, tc.points)
			}
		})
	}
}

// wallClock matches the JSON fields that carry wall-clock time.
var wallClock = regexp.MustCompile(`"(wall_ns|submitted_unix_ns|finished_unix_ns)":\d+`)

// What a job echoes is pinned byte for byte: the status of a sim, a
// cached sim, an experiment, a sweep (parent and children) and an ingest
// session, then every journal line they wrote, wall-clock fields zeroed.
func TestStatusAndJournalGolden(t *testing.T) {
	var jbuf syncBuffer
	e := newTestEngine(t, Options{Workers: 1, Journal: NewJournal(&jbuf)})
	e.runSim = instantSim
	e.runExp = fakeTables

	waitDone(t, e, must(t)(e.Submit(seedReq(1))).ID)
	must(t)(e.Submit(seedReq(1)))
	waitDone(t, e, must(t)(e.SubmitExperiment(expReq(1))).ID)
	waitSweep(t, e, must(t)(e.SubmitSweep(seedSweep(2, 3))).ID)
	st := must(t)(e.OpenIngest(IngestRequest{System: "hopp", WindowRecords: 16}))
	putAll(t, e, st.ID, encodeTrace(48, 0, nil), 20*hmtt.RecordSize)
	// Close only once the last chunk entry is journaled (progress is
	// stored with it), so every chunk entry records the streaming phase.
	waitIngest(t, e, st.ID, func(s RunStatus) bool { return s.Progress == 48 })
	closeAndWaitDone(t, e, st.ID)

	var got bytes.Buffer
	for _, run := range e.Runs() {
		b, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(append(b, '\n'))
	}
	journal, err := io.ReadAll(jbuf.reader())
	if err != nil {
		t.Fatal(err)
	}
	got.Write(journal)
	norm := wallClock.ReplaceAll(got.Bytes(), []byte(`"$1":0`))

	const golden = "testdata/status_journal.golden"
	if *update {
		if err := os.WriteFile(golden, norm, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/service -run StatusAndJournalGolden -update` to create)", err)
	}
	if !bytes.Equal(norm, want) {
		t.Fatalf("status/journal echo diverged from golden:\n got %s\nwant %s", norm, want)
	}
}

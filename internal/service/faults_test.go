package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hopp/internal/faults"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

// logCapture is a goroutine-safe Options.Logf sink.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logCapture) matching(substr string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return out
}

// A panic inside one job is contained on its worker: that job alone
// lands in StateFailed with ErrRunPanicked while a concurrently
// running job — parked mid-execution when the panic fires — completes
// normally, and the engine keeps accepting work afterwards.
func TestPanicContainedToOneJob(t *testing.T) {
	inj := faults.New(1)
	inj.Enable(faults.SiteRunSlow, faults.OnHits(1))  // first job parks
	inj.Enable(faults.SiteRunPanic, faults.OnHits(2)) // second job panics
	var logs logCapture
	e := newTestEngine(t, Options{Workers: 2, Faults: inj, Logf: logs.logf})
	e.runSim = instantSim

	slow, err := e.Submit(seedReq(1))
	if err != nil {
		t.Fatal(err)
	}
	// The gate holding the first job proves it passed the panic site, so
	// the second submission deterministically draws panic-site hit #2.
	gate := inj.Gate(faults.SiteRunSlow)
	waitCounters(t, e, func(MetricsSnapshot) bool { return gate.Waiters() == 1 })

	doomed, err := e.Submit(seedReq(2))
	if err != nil {
		t.Fatal(err)
	}
	failed := waitDone(t, e, doomed.ID)
	if failed.State != StateFailed || !strings.Contains(failed.Error, ErrRunPanicked.Error()) {
		t.Fatalf("panicked job = %s (%q), want failed with %v", failed.State, failed.Error, ErrRunPanicked)
	}

	// The parked job was in flight throughout the panic; it must still
	// finish cleanly once released.
	gate.Open()
	if st := waitDone(t, e, slow.ID); st.State != StateDone {
		t.Fatalf("concurrent job = %s (%q), want done", st.State, st.Error)
	}

	m := e.Metrics()
	kc := m.Jobs[KindSim]
	if kc.Panicked != 1 || kc.Failed != 1 || kc.Completed != 1 {
		t.Fatalf("sim counters = %+v, want panicked=1 failed=1 completed=1", kc)
	}
	if got := logs.matching("panicked"); len(got) != 1 || !strings.Contains(got[0], "goroutine") {
		t.Fatalf("panic log = %q, want one line carrying the stack", got)
	}

	// The daemon survived: a fresh submission still runs to completion.
	after, err := e.Submit(seedReq(3))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, e, after.ID); st.State != StateDone {
		t.Fatalf("post-panic job = %s (%q), want done", st.State, st.Error)
	}
}

// A PanicError is inspectable: errors.Is sees ErrRunPanicked and
// errors.As recovers the value and stack.
func TestPanicErrorShape(t *testing.T) {
	inj := faults.New(1)
	inj.Enable(faults.SiteRunPanic, faults.Always())
	e := newTestEngine(t, Options{Workers: 1, Faults: inj})
	e.runSim = instantSim

	_, _, err := e.runContained(context.Background(), &Job{ID: "r000001", Kind: KindSim, Sim: &RunRequest{}})
	if !errors.Is(err, ErrRunPanicked) {
		t.Fatalf("err = %v, want ErrRunPanicked", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("err = %#v, want *PanicError with stack", err)
	}
}

// Journal append failures are best-effort: the jobs still finish and
// evict, journal_write_errors counts every failure, exactly one log
// line covers the whole burst, /healthz degrades while the last write
// is failing, and all of it clears on the next successful append.
func TestJournalWriteErrorBurst(t *testing.T) {
	inj := faults.New(1)
	inj.Enable(faults.SiteJournalAppend, faults.OnHits(1, 2))
	var buf syncBuffer
	var logs logCapture
	e := newTestEngine(t, Options{Workers: 1, Journal: NewJournal(&buf), Faults: inj, Logf: logs.logf})
	e.runSim = instantSim

	for seed := int64(1); seed <= 2; seed++ {
		st, err := e.Submit(seedReq(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := waitDone(t, e, st.ID); got.State != StateDone {
			t.Fatalf("job with failing journal = %s (%q), want done — appends are best-effort", got.State, got.Error)
		}
	}
	m := e.Metrics()
	if m.JournalWriteErrors != 2 || m.JournalWrites != 0 {
		t.Fatalf("write errors/writes = %d/%d, want 2/0", m.JournalWriteErrors, m.JournalWrites)
	}
	if !m.JournalLastWriteFailed {
		t.Fatal("journal_last_write_failed = false mid-burst, want true")
	}
	if h := e.Health(); h.Status != HealthDegraded {
		t.Fatalf("health mid-burst = %+v, want degraded", h)
	}
	if got := logs.matching("journal append failed"); len(got) != 1 {
		t.Fatalf("burst logged %d times, want once: %q", len(got), got)
	}

	// Third append succeeds: degradation clears and the recovery logs.
	st, err := e.Submit(seedReq(3))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, st.ID)
	m = e.Metrics()
	if m.JournalWrites != 1 || m.JournalLastWriteFailed {
		t.Fatalf("after recovery writes=%d lastFailed=%v, want 1/false", m.JournalWrites, m.JournalLastWriteFailed)
	}
	if h := e.Health(); h.Status != HealthOK {
		t.Fatalf("health after recovery = %+v, want ok", h)
	}
	if got := logs.matching("recovered"); len(got) != 1 {
		t.Fatalf("recovery logged %d times, want once", len(got))
	}
	entries, err := ReadJournal(buf.reader())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Seed != 3 {
		t.Fatalf("journal holds %+v, want only the third job", entries)
	}
}

// Queue pressure built on demand: one parked run fills the single
// worker, the next submission queues, and the one after that sheds
// with ErrOverloaded — while /healthz reports degraded for the
// saturated queue. Opening the gate drains everything.
func TestQueueSaturationDeterministic(t *testing.T) {
	inj := faults.New(1)
	inj.Enable(faults.SiteRunSlow, faults.OnHits(1))
	e := newTestEngine(t, Options{Workers: 1, MaxQueue: 1, Faults: inj})
	e.runSim = instantSim

	parked, err := e.Submit(seedReq(1))
	if err != nil {
		t.Fatal(err)
	}
	gate := inj.Gate(faults.SiteRunSlow)
	waitCounters(t, e, func(MetricsSnapshot) bool { return gate.Waiters() == 1 })

	queued, err := e.Submit(seedReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(seedReq(3)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-bound submit err = %v, want ErrOverloaded", err)
	}
	h := e.Health()
	if h.Status != HealthDegraded || len(h.Reasons) != 1 || !strings.Contains(h.Reasons[0], "queue depth") {
		t.Fatalf("health under saturation = %+v, want degraded with queue reason", h)
	}

	gate.Open()
	if st := waitDone(t, e, parked.ID); st.State != StateDone {
		t.Fatalf("parked job = %s, want done", st.State)
	}
	if st := waitDone(t, e, queued.ID); st.State != StateDone {
		t.Fatalf("queued job = %s, want done", st.State)
	}
	if h := e.Health(); h.Status != HealthOK {
		t.Fatalf("health after drain = %+v, want ok", h)
	}
}

// SitePoolSubmit forces admission shedding with no real backlog: the
// submission is rejected exactly like a full queue — 429-shaped error,
// rejected counter, no registry entry.
func TestInjectedPoolRejection(t *testing.T) {
	inj := faults.New(1)
	inj.Enable(faults.SitePoolSubmit, faults.OnHits(1))
	e := newTestEngine(t, Options{Workers: 1, Faults: inj})
	e.runSim = instantSim

	if _, err := e.Submit(seedReq(1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("injected rejection err = %v, want ErrOverloaded", err)
	}
	m := e.Metrics()
	if kc := m.Jobs[KindSim]; kc.Rejected != 1 || kc.Submitted != 0 {
		t.Fatalf("counters after injected rejection = %+v, want rejected=1 submitted=0", kc)
	}
	if m.RegistrySize != 0 {
		t.Fatalf("registry size = %d after rejection, want 0", m.RegistrySize)
	}

	// The rule fired once; the retry goes through.
	st, err := e.Submit(seedReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, e, st.ID); got.State != StateDone {
		t.Fatalf("retry = %s, want done", got.State)
	}
}

// Shutdown past the drain deadline returns the typed ErrDrainIncomplete
// (still wrapping context.DeadlineExceeded), cancels in-flight work,
// and reaps every worker goroutine — no leak survives a forced drain.
func TestDrainTimeoutTypedErrorNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(Options{Workers: 2})
	e.runSim = stuckUntilCancelSim

	for seed := int64(1); seed <= 2; seed++ {
		if _, err := e.Submit(seedReq(seed)); err != nil {
			t.Fatal(err)
		}
	}
	waitCounters(t, e, func(m MetricsSnapshot) bool { return m.Jobs[KindSim].Started == 2 })

	// A deadline already in the past: the drain window is over before it
	// starts, deterministically.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := e.Shutdown(ctx)
	if !errors.Is(err, ErrDrainIncomplete) {
		t.Fatalf("Shutdown err = %v, want ErrDrainIncomplete", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want it to also wrap DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "drain incomplete") {
		t.Fatalf("Shutdown err text = %q", err)
	}

	// Shutdown already waited for the pool; the only goroutines still
	// unwinding are the jobs' own deferred paths. Poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines = %d after forced drain, want <= %d (pre-engine baseline)", runtime.NumGoroutine(), before)
}

// stuckUntilCancelSim holds its worker until the run context dies —
// the shape of a run that outlives any drain deadline.
func stuckUntilCancelSim(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
	<-ctx.Done()
	return sim.Metrics{}, ctx.Err()
}

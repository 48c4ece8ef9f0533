package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hopp/internal/experiments"
	"hopp/internal/faults"
	"hopp/internal/hmtt"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

// Engine errors.
var (
	ErrClosed            = errors.New("service: engine closed")
	ErrUnknownRun        = errors.New("service: unknown run id")
	ErrUnknownWorkload   = errors.New("service: unknown workload")
	ErrUnknownSystem     = errors.New("service: unknown system")
	ErrUnknownExperiment = errors.New("service: unknown experiment")
	ErrBadFrac           = errors.New("service: frac must be in [0, 1)")
	ErrNotCancellable    = errors.New("service: run already finished")
	// ErrOverloaded rejects a submission because the pending queue is at
	// its configured bound. The HTTP layer maps it to 429 + Retry-After;
	// the submission leaves no registry entry behind.
	ErrOverloaded = errors.New("service: engine overloaded, retry later")
	// ErrRunTimeout marks a job that exceeded the per-run deadline; such
	// jobs land in StateFailed with this error in their message.
	ErrRunTimeout = errors.New("service: run timeout exceeded")
	// ErrRunPanicked marks a job whose work function panicked. The panic
	// is contained on the worker: that one job lands in StateFailed with
	// a PanicError (stack attached), the worker and every other
	// in-flight job keep running.
	ErrRunPanicked = errors.New("service: run panicked")
	// ErrDrainIncomplete is returned by Shutdown when the drain deadline
	// expired before in-flight work unwound; the daemon exits non-zero
	// so operators can tell a clean drain from a forced one.
	ErrDrainIncomplete = errors.New("service: drain incomplete")
)

// PanicError is the typed failure of a panicked job: the recovered
// value plus the goroutine stack captured at the recovery point.
// errors.Is(err, ErrRunPanicked) identifies it; errors.As extracts the
// stack for logs.
type PanicError struct {
	Value any
	Stack []byte
}

func (p *PanicError) Error() string { return fmt.Sprintf("%v: %v", ErrRunPanicked, p.Value) }
func (p *PanicError) Unwrap() error { return ErrRunPanicked }

// RunRequest is one workload × system simulation submission — the
// payload of a KindSim job.
type RunRequest struct {
	// Workload names a catalog workload (see WorkloadNames).
	Workload string `json:"workload"`
	// System names a catalog system (see SystemNames).
	System string `json:"system"`
	// Frac is local memory as a fraction of the footprint in [0, 1);
	// 0 = all local. Nil defaults to 0.5, the paper's headline setting.
	Frac *float64 `json:"frac,omitempty"`
	// Seed drives workload randomness and fabric jitter.
	Seed int64 `json:"seed"`
	// Quick shrinks the workload ~4x (and the cache hierarchy with it).
	Quick bool `json:"quick,omitempty"`
}

// Normalize validates the request against the catalog and resolves
// defaults, returning the canonical form and its key. The job table is
// only ever consulted with keys produced here, so two requests share a
// result iff they normalize to the same simulation.
func (r RunRequest) Normalize() (RunRequest, string, error) {
	n := r
	n.Workload = strings.ToLower(strings.TrimSpace(n.Workload))
	n.System = strings.ToLower(strings.TrimSpace(n.System))
	if !knownWorkload(n.Workload) {
		return n, "", fmt.Errorf("%w %q", ErrUnknownWorkload, r.Workload)
	}
	canon, ok := canonicalSystem(n.System)
	if !ok {
		return n, "", fmt.Errorf("%w %q", ErrUnknownSystem, r.System)
	}
	// Registry specs canonicalize (depth?n=16 ≡ depth-16,
	// spp?lookahead=4 ≡ spp), so equivalent parameterized requests
	// share one result and one dedupe slot.
	n.System = canon
	var err error
	if n.Frac, err = normalizeFrac(n.Frac); err != nil {
		return n, "", err
	}
	key := fmt.Sprintf("run|%s|%s|%.9g|%d|%t", n.Workload, n.System, *n.Frac, n.Seed, n.Quick)
	return n, key, nil
}

// normalizeFrac defaults a nil local-memory fraction to 0.5 and
// rejects one outside [0, 1). The range test is negated so that NaN,
// which fails every comparison, fails it too.
func normalizeFrac(f *float64) (*float64, error) {
	if f == nil {
		half := 0.5
		return &half, nil
	}
	if !(*f >= 0 && *f < 1) {
		return f, fmt.Errorf("%w (got %g)", ErrBadFrac, *f)
	}
	return f, nil
}

// ExperimentRequest is one table/figure regeneration submission — the
// payload of a KindExperiment job.
type ExperimentRequest struct {
	// Experiment names a regenerable table/figure (see Experiments).
	Experiment string `json:"experiment"`
	// Seed drives all randomness of the experiment's simulations.
	Seed int64 `json:"seed"`
	// Quick shrinks workloads ~4x.
	Quick bool `json:"quick,omitempty"`
}

// Normalize validates the request against the experiment index and
// returns the canonical form and its key.
func (r ExperimentRequest) Normalize() (ExperimentRequest, string, error) {
	n := r
	n.Experiment = strings.ToLower(strings.TrimSpace(n.Experiment))
	if _, ok := experiments.ByID(n.Experiment); !ok {
		return n, "", fmt.Errorf("%w %q", ErrUnknownExperiment, r.Experiment)
	}
	key := fmt.Sprintf("exp|%s|%d|%t", n.Experiment, n.Seed, n.Quick)
	return n, key, nil
}

// JobSpec is the request a job echoes, in its RunStatus and in its
// JournalEntry alike: workload/system/frac for sim and ingest jobs, the
// experiment ID for experiment jobs, seed and quick where the kind has
// them, and the progress gauge.
type JobSpec struct {
	Workload string   `json:"workload,omitempty"`
	System   string   `json:"system,omitempty"`
	Frac     *float64 `json:"frac,omitempty"`

	// Experiment is the experiment ID of a KindExperiment job.
	Experiment string `json:"experiment,omitempty"`
	// Progress counts an experiment's or a sweep's completed
	// simulations, one per machine run (experiments.Options.Progress
	// feeds the former, local baselines included), and an ingest
	// session's decoded records. Zero for sim jobs (one job is one
	// simulation).
	Progress int64 `json:"progress,omitempty"`

	Seed  int64 `json:"seed"`
	Quick bool  `json:"quick,omitempty"`
}

// RunStatus is the externally visible snapshot of one job: its request
// echo plus the outcome — the serialized Metrics of a done sim job, the
// rendered table text of a done experiment job, the aggregate of a
// sweep, the session state of an ingest.
type RunStatus struct {
	ID    string   `json:"id"`
	Kind  JobKind  `json:"kind"`
	State JobState `json:"state"`
	JobSpec
	// Cached marks a job served without running: a result hit, or a
	// follower that inherited its leader's result.
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// WallNS is the wall-clock time the job held a worker; SimNS the
	// simulated completion time a sim job produced.
	WallNS int64 `json:"wall_ns,omitempty"`
	SimNS  int64 `json:"sim_ns,omitempty"`
	// Metrics is the serialized sim.Metrics, present once a sim job is
	// done.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Output is the rendered table text, present once an experiment job
	// is done.
	Output string `json:"output,omitempty"`

	// Parent is the sweep parent's job ID on sweep-child jobs.
	Parent string `json:"parent,omitempty"`
	// Sweep is the aggregate fan-out state of a KindSweep job; its
	// Progress gauge counts settled points.
	Sweep *SweepStatus `json:"sweep,omitempty"`
	// Ingest is the session state of a KindIngest job; its Progress
	// gauge counts decoded records.
	Ingest *IngestStatus `json:"ingest,omitempty"`
}

// DefaultRetainRuns is the terminal-job retention bound applied when
// Options.RetainRuns is unset.
const DefaultRetainRuns = 1024

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// MaxQueue bounds jobs queued behind busy workers; submissions over
	// the limit fail fast with ErrOverloaded. <= 0 means unbounded.
	MaxQueue int
	// RetainRuns bounds terminal (done/failed/cancelled) jobs kept in
	// the registry: once exceeded the oldest-finished are evicted and
	// later lookups of their IDs return ErrUnknownRun (HTTP 404), and
	// identical resubmissions stop being served from their results.
	// <= 0 means DefaultRetainRuns.
	RetainRuns int
	// RetainAge additionally evicts terminal jobs older than this even
	// while under the count bound. <= 0 disables age-based eviction.
	RetainAge time.Duration
	// RunTimeout caps each executing job's wall time so a pathological
	// request cannot pin a worker; timed-out jobs land in StateFailed
	// with ErrRunTimeout. <= 0 disables the deadline.
	RunTimeout time.Duration
	// MaxSweepPoints bounds one sweep submission's expanded grid; larger
	// grids are rejected with ErrSweepTooLarge before touching the
	// registry. <= 0 means DefaultMaxSweepPoints.
	MaxSweepPoints int
	// MaxIngests bounds concurrently live ingest sessions; opens beyond
	// it are rejected with ErrIngestLimit (HTTP 429). <= 0 means
	// DefaultMaxIngests.
	MaxIngests int
	// IngestIdleTimeout expires an ingest session whose client goes
	// silent — no chunk, no close — for this long; expired sessions
	// finish failed and free their slot. <= 0 means
	// DefaultIngestIdleTimeout.
	IngestIdleTimeout time.Duration
	// IngestRingRecords sizes each ingest session's staging ring in
	// trace records (RecordSize bytes apiece); a chunk that cannot fit
	// pauses the session instead of growing the buffer. <= 0 means
	// DefaultIngestRingRecords.
	IngestRingRecords int
	// Journal, when non-nil, receives a JSONL entry for every job the
	// moment it reaches a terminal state — the audit trail past
	// -retain-runs and the recovery source for ReplayJournal.
	Journal *Journal
	// Logf, when non-nil, receives operational log lines (journal write
	// bursts, contained panics). Nil discards them.
	Logf func(format string, args ...any)
	// Faults, when non-nil, threads a deterministic fault injector into
	// the engine, its pool, and its journal — the test-only seam that
	// forces panics, journal errors, slow runs, and queue pressure on
	// demand. Nil (the production default) costs one nil check per site.
	Faults *faults.Injector
}

// Engine is the long-lived simulation service: a FIFO worker pool fed
// by Submit, SubmitExperiment and SubmitSweep, and one bounded job
// table of recent jobs — indexed by canonical request key, so it also
// serves identical submissions from retained results or folds them
// onto a live job — with the runtime counters beside it. One Engine
// outlives any number of requests; the daemon owns exactly one. Every
// unit of offered work — a workload × system simulation or a
// table/figure regeneration — is a Job flowing through the same
// admission control, queue, per-run deadline, retention policy, and
// per-kind metrics, so the process stays O(configuration) no matter how
// long or what mix it serves.
type Engine struct {
	pool *Pool
	reg  *registry
	// ctr is &reg.ctr, guarded by reg.mu. streamsBuilt counts the sweep
	// workload streams workers generate outside the lock.
	ctr          *counters
	streamsBuilt atomic.Uint64

	runTimeout     time.Duration
	maxSweepPoints int

	maxIngests      int
	ingestIdle      time.Duration
	ingestRingBytes int
	// liveIngests holds non-terminal ingest jobs in open order — the
	// deterministic set Shutdown flags and Metrics gauges. Guarded by
	// reg.mu. ingestWG tracks their pump goroutines; Shutdown waits on
	// it after the pool drains, so pumps are reaped leak-free.
	liveIngests []*Job
	ingestWG    sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	closed bool // guarded by reg.mu

	// liveSweeps holds non-terminal sweep parents in submission order —
	// the deterministic iteration set for pacing-window refills (a map
	// would make refill order depend on hash order). Guarded by reg.mu.
	liveSweeps []*Job
	// finishQ/finishing turn terminal-transition cascades (child →
	// follower → parent → sibling refill) into an iterative worklist:
	// finishLocked enqueues, the outermost call drains. Guarded by
	// reg.mu.
	finishQ   []*Job
	finishing bool

	logf   func(format string, args ...any)
	faults *faults.Injector // nil in production

	// Hooks, replaceable in tests to decouple lifecycle tests from
	// simulation wall time.
	runSim func(ctx context.Context, req RunRequest, gen *workload.Base) (sim.Metrics, error)
	runExp func(ctx context.Context, exp experiments.Experiment, opts experiments.Options) ([]experiments.Table, error)
}

// NewEngine starts an engine; callers must Shutdown (or Close) it.
func NewEngine(opts Options) *Engine {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.Journal != nil && opts.Faults != nil {
		opts.Journal.SetInjector(opts.Faults)
	}
	maxSweep := opts.MaxSweepPoints
	if maxSweep <= 0 {
		maxSweep = DefaultMaxSweepPoints
	}
	maxIngests := opts.MaxIngests
	if maxIngests <= 0 {
		maxIngests = DefaultMaxIngests
	}
	ingestIdle := opts.IngestIdleTimeout
	if ingestIdle <= 0 {
		ingestIdle = DefaultIngestIdleTimeout
	}
	ringRecords := opts.IngestRingRecords
	if ringRecords <= 0 {
		ringRecords = DefaultIngestRingRecords
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := newRegistry(opts.RetainRuns, opts.RetainAge, opts.Journal, logf)
	e := &Engine{
		pool:            NewPool(opts.Workers, opts.MaxQueue),
		reg:             reg,
		ctr:             &reg.ctr,
		runTimeout:      opts.RunTimeout,
		maxSweepPoints:  maxSweep,
		maxIngests:      maxIngests,
		ingestIdle:      ingestIdle,
		ingestRingBytes: ringRecords * hmtt.RecordSize,
		baseCtx:         ctx,
		baseCancel:      cancel,
		logf:            logf,
		faults:          opts.Faults,
		runSim:          runSimulation,
		runExp: func(ctx context.Context, exp experiments.Experiment, opts experiments.Options) ([]experiments.Table, error) {
			return exp.Run(ctx, opts)
		},
	}
	e.pool.setInjector(opts.Faults)
	return e
}

// SetJournal attaches (or replaces) the terminal-job journal. The
// daemon uses it to sequence startup — replay the old file first, then
// open it for append — so the replay reader never races the writer.
// Safe to call while the engine is serving.
func (e *Engine) SetJournal(j *Journal) {
	if j != nil && e.faults != nil {
		j.SetInjector(e.faults)
	}
	e.reg.mu.Lock()
	e.reg.journal = j
	e.reg.mu.Unlock()
}

// Simulate validates req as Submit does and runs it to completion on
// the caller's goroutine, outside the queue and the job table: the
// path cmd/hoppsim takes, so a CLI run and a served run of the same
// request report the same metrics.
func Simulate(ctx context.Context, req RunRequest) (sim.Metrics, error) {
	norm, _, err := req.Normalize()
	if err != nil {
		return sim.Metrics{}, err
	}
	return runSimulation(ctx, norm, nil)
}

// runSimulation executes one normalized request on its own machine —
// the unit of determinism — holding one of sim.Run's process-wide
// machine slots, the bound experiment jobs take too. gen is the access
// stream: a sweep's shared frozen replay for sweep children, nil for
// standalone runs, which build their own generator. A replay is
// access-for-access identical to a fresh generator, so both give the
// same bytes.
func runSimulation(ctx context.Context, req RunRequest, gen *workload.Base) (sim.Metrics, error) {
	if gen == nil {
		g, ok := NewWorkload(req.Workload, req.Quick)
		if !ok {
			return sim.Metrics{}, fmt.Errorf("%w %q", ErrUnknownWorkload, req.Workload)
		}
		gen = g
	}
	sys, ok := NewSystem(req.System)
	if !ok {
		return sim.Metrics{}, fmt.Errorf("%w %q", ErrUnknownSystem, req.System)
	}
	cfg := experiments.Options{Seed: req.Seed, Quick: req.Quick}.SimConfig(*req.Frac)
	cfg.System = sys
	return sim.Run(ctx, cfg, gen)
}

// Submit validates, canonicalizes, and enqueues a simulation job,
// returning its registry snapshot immediately. A result still retained
// in the job table comes back as a job born done with Cached set; a
// submission identical to a live job follows it; everything else is
// queued FIFO behind earlier submissions of either kind. When the
// pending queue is at its bound the submission is rejected with
// ErrOverloaded and leaves no registry entry — callers retry, they
// don't pile up.
func (e *Engine) Submit(req RunRequest) (RunStatus, error) {
	norm, key, err := req.Normalize()
	if err != nil {
		return RunStatus{}, err
	}
	return e.submitJob(&Job{Kind: KindSim, key: key, Sim: &norm})
}

// SubmitExperiment validates and enqueues an experiment-regeneration
// job through the same admission control, queue, deadline, and
// retention as Submit. The returned status carries the job ID to poll
// via Status/Wait (HTTP: GET /v1/runs/{id}).
func (e *Engine) SubmitExperiment(req ExperimentRequest) (RunStatus, error) {
	norm, key, err := req.Normalize()
	if err != nil {
		return RunStatus{}, err
	}
	return e.submitJob(&Job{Kind: KindExperiment, key: key, Exp: &norm})
}

// submitJob admits one standalone keyed job: classification against
// the job table, the queue-bound check for a job that must run, then
// admission. The ordering is load-bearing — the pool accepts the work
// before the job gets an ID, a registry slot or a counter tick, so a
// rejected submission of either kind records nothing.
func (e *Engine) submitJob(j *Job) (RunStatus, error) {
	now := time.Now()
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	if e.closed {
		return RunStatus{}, ErrClosed
	}
	e.reg.evictLocked(now) // age out stale terminal jobs even on idle→burst
	j.submitted = now
	j.done = make(chan struct{})
	if e.classifyLocked(j, nil) {
		// Lock order is reg.mu → pool.mu, taken nowhere in reverse.
		if err := e.pool.Submit(func() { e.execute(j) }); err != nil {
			if errors.Is(err, ErrQueueFull) {
				e.ctr.jobs[j.Kind].Rejected++
				return RunStatus{}, fmt.Errorf("%w (queue depth at bound %d)", ErrOverloaded, e.pool.MaxQueue())
			}
			return RunStatus{}, ErrClosed // pool closed: raced Shutdown
		}
	}
	e.admitLocked(j)
	if j.cached {
		e.finishLocked(j, StateDone, nil, now)
	}
	return e.statusLocked(j), nil
}

// classifyLocked resolves a keyed job against the job table and reports
// whether it must run itself; it records nothing. A done job under the
// key makes j a cache hit carrying that job's result; a live one — or
// one in pending, the jobs admitted alongside j but not yet recorded —
// becomes j's leader. reg.mu must be held.
func (e *Engine) classifyLocked(j *Job, pending map[string]*Job) bool {
	prev := e.reg.byKey[j.key]
	if prev == nil {
		prev = pending[j.key]
	}
	if prev != nil && prev.State == StateDone {
		j.cached, j.Result, j.simNS = true, prev.Result, prev.simNS
		return false
	}
	j.State = StateQueued
	j.leader = prev
	return prev == nil
}

// admitLocked records a classified job once the pool has accepted any
// work it needs: it gets an ID, its kind's submitted tick and a cache
// hit or miss; a follower joins its leader, and a job that runs becomes
// its key's live entry. The caller settles cache hits. reg.mu must be
// held.
func (e *Engine) admitLocked(j *Job) {
	e.reg.addLocked(j)
	e.ctr.jobs[j.Kind].Submitted++
	switch {
	case j.cached:
		e.ctr.CacheHits++
	case j.leader != nil:
		j.leader.followers = append(j.leader.followers, j)
	default:
		e.ctr.CacheMisses++
		e.reg.byKey[j.key] = j
	}
}

// finishLocked is the one way a job ends; reg.mu must be held. It sets
// the terminal state and the cause's error text and ticks the kind's
// lifecycle counters from the outcome: completed for a done job that
// computed its result (cache hits and followers inherit one), failed —
// plus timed_out or panicked when the cause wraps ErrRunTimeout or
// ErrRunPanicked — or cancelled. Then it settles the job: registry
// bookkeeping, journal, done-channel close, key-index update, follower
// settlement, and sweep-parent accounting. Terminal transitions cascade
// — a child's finish can complete its parent, promote a follower, or
// refill another sweep's window — so the settling runs as an iterative
// worklist instead of recursion: nested calls only enqueue, the
// outermost call drains.
func (e *Engine) finishLocked(j *Job, state JobState, cause error, now time.Time) {
	j.State = state
	if cause != nil {
		j.errMsg = cause.Error()
	}
	kc := e.ctr.jobs[j.Kind]
	switch state {
	case StateDone:
		if !j.cached {
			kc.Completed++
		}
	case StateFailed:
		kc.Failed++
		if errors.Is(cause, ErrRunTimeout) {
			kc.TimedOut++
		}
		if errors.Is(cause, ErrRunPanicked) {
			kc.Panicked++
		}
	case StateCancelled:
		kc.Cancelled++
	}
	e.finishQ = append(e.finishQ, j)
	if e.finishing {
		return
	}
	e.finishing = true
	for len(e.finishQ) > 0 {
		next := e.finishQ[0]
		e.finishQ = e.finishQ[1:]
		e.finishOneLocked(next, now)
	}
	e.finishing = false
}

// finishOneLocked settles exactly one terminal job; reg.mu must be
// held. Only finishLocked calls it.
func (e *Engine) finishOneLocked(j *Job, now time.Time) {
	// A done keyed job becomes its key's newest result; a live entry
	// that ends otherwise leaves the index (a follower may retake it).
	switch {
	case j.key == "":
	case j.State == StateDone:
		e.reg.byKey[j.key] = j
	case e.reg.byKey[j.key] == j:
		delete(e.reg.byKey, j.key)
	}
	e.reg.markTerminalLocked(j, now)
	if !j.doneClosed {
		j.doneClosed = true
		close(j.done)
	}
	e.settleFollowersLocked(j, now)
	if j.ingest != nil {
		e.removeLiveIngestLocked(j)
	}
	if j.parent != nil {
		e.sweepChildDoneLocked(j.parent, j, now)
	}
	// Any terminal transition can free queue room; let paced sweeps top
	// their windows back up.
	e.advanceSweepsLocked(now)
}

// execute runs one queued job on a pool worker.
func (e *Engine) execute(j *Job) {
	e.reg.mu.Lock()
	if j.State != StateQueued { // cancelled while queued
		e.reg.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.started = time.Now()
	// The per-run deadline nests inside the engine's base context, so a
	// job ends for exactly one of three reasons: its own deadline
	// (DeadlineExceeded), a caller's Cancel or engine shutdown
	// (Canceled), or the work finishing.
	var ctx context.Context
	var cancel context.CancelFunc
	if e.runTimeout > 0 {
		j.Deadline = j.started.Add(e.runTimeout)
		ctx, cancel = context.WithDeadline(e.baseCtx, j.Deadline)
	} else {
		ctx, cancel = context.WithCancel(e.baseCtx)
	}
	j.cancel = cancel
	e.ctr.jobs[j.Kind].Started++
	e.reg.mu.Unlock()
	defer cancel()

	result, simNS, err := e.runContained(ctx, j)
	wall := time.Since(j.started).Nanoseconds()

	e.reg.mu.Lock()
	j.wallNS = wall
	state := StateFailed
	switch {
	case err == nil:
		state = StateDone
		j.Result = result
		j.simNS = simNS
		e.ctr.RunWallNS += wall
		e.ctr.RunSimulatedNS += simNS
	case e.runTimeout > 0 && errors.Is(err, context.DeadlineExceeded):
		err = fmt.Errorf("%w (exceeded %v)", ErrRunTimeout, e.runTimeout)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state = StateCancelled
	}
	e.finishLocked(j, state, err, time.Now())
	e.reg.mu.Unlock()
}

// runContained wraps one job's work in panic containment and the
// fault-injection sites. A panic anywhere in the work function — the
// simulation, the experiment, result serialization, or an injected
// fault — is recovered on this worker and converted into a PanicError
// carrying the stack; the worker goroutine, the engine, and every other
// in-flight job are unaffected. This is the boundary that keeps one
// poisoned request from taking the daemon down, the service-layer
// mirror of HoPP's own rule that the fault path must survive a
// misbehaving prefetch path.
func (e *Engine) runContained(ctx context.Context, j *Job) (result []byte, simNS int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			e.logf("job %s (%s) panicked: %v\n%s", j.ID, j.Kind, r, stack)
			err = &PanicError{Value: r, Stack: stack}
			result, simNS = nil, 0
		}
	}()
	if e.faults.Hit(faults.SiteRunPanic) {
		panic(fmt.Sprintf("injected panic at %s", faults.SiteRunPanic))
	}
	if e.faults.Hit(faults.SiteRunSlow) {
		// Parked, not sleeping: the job stays "slow" until the test
		// opens the gate or the job's deadline/cancel fires.
		if gerr := e.faults.Gate(faults.SiteRunSlow).Wait(ctx); gerr != nil {
			return nil, 0, gerr
		}
	}
	return e.executeKind(ctx, j)
}

// executeKind dispatches a running job to its kind's work function and
// serializes the result: marshaled sim.Metrics for sim jobs, rendered
// table text for experiment jobs. Both serializations are deterministic
// (fixed struct order / fixed table order), which is what lets the job
// table hand the same bytes to every later hit.
func (e *Engine) executeKind(ctx context.Context, j *Job) ([]byte, int64, error) {
	switch j.Kind {
	case KindSim:
		var gen *workload.Base
		if j.parent != nil && j.parent.sweep != nil {
			// Sweep child: replay the sweep's frozen access stream instead
			// of regenerating the workload — generated once per distinct
			// (workload, seed), shared read-only by every (system, frac)
			// point. The result bytes match a standalone run of the same
			// request.
			var err error
			if gen, err = j.parent.sweep.streams.get(*j.Sim, &e.streamsBuilt); err != nil {
				return nil, 0, err
			}
		}
		met, err := e.runSim(ctx, *j.Sim, gen)
		if err != nil {
			return nil, 0, err
		}
		// json.Marshal is deterministic (struct order fixed, map keys
		// sorted), so equal runs serialize to equal bytes — the property
		// result hits and the determinism tests rely on.
		result, err := json.Marshal(met)
		return result, int64(met.CompletionTime), err
	case KindExperiment:
		exp, ok := experiments.ByID(j.Exp.Experiment)
		if !ok {
			return nil, 0, fmt.Errorf("%w %q", ErrUnknownExperiment, j.Exp.Experiment)
		}
		opts := experiments.Options{
			Seed:     j.Exp.Seed,
			Quick:    j.Exp.Quick,
			Progress: func() { j.progress.Add(1) },
		}
		tables, err := e.runExp(ctx, exp, opts)
		if err != nil {
			return nil, 0, err
		}
		var buf bytes.Buffer
		for _, t := range tables {
			t.Fprint(&buf)
		}
		return buf.Bytes(), 0, nil
	default:
		return nil, 0, fmt.Errorf("service: unknown job kind %q", j.Kind)
	}
}

// statusLocked snapshots a job; reg.mu must be held.
func (e *Engine) statusLocked(j *Job) RunStatus {
	s := RunStatus{
		ID:      j.ID,
		Kind:    j.Kind,
		State:   j.State,
		JobSpec: j.spec(),
		Cached:  j.cached,
		Error:   j.errMsg,
		WallNS:  j.wallNS,
		SimNS:   j.simNS,
		Parent:  j.parentID,
	}
	s.Metrics, s.Output = j.payload()
	switch {
	case j.ingest != nil:
		s.Ingest = j.ingest.statusSnapshot()
	case j.sweep != nil:
		s.Sweep = e.sweepStatusLocked(j)
	}
	return s
}

// Status returns one job's snapshot, whatever its kind.
func (e *Engine) Status(id string) (RunStatus, error) { return e.status(id, "") }

// status snapshots job id, which must be of kind k unless k is empty.
func (e *Engine) status(id string, k JobKind) (RunStatus, error) {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	j, err := e.reg.kindLocked(id, k)
	if err != nil {
		return RunStatus{}, err
	}
	return e.statusLocked(j), nil
}

// Runs lists every retained job — sim and experiment — in submission
// order. Evicted terminal jobs no longer appear; under sustained load
// the list plateaus at the retention bound plus whatever is queued or
// running.
func (e *Engine) Runs() []RunStatus {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	return e.reg.listLocked(e.statusLocked)
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (e *Engine) Wait(ctx context.Context, id string) (st RunStatus, err error) {
	err = e.await(ctx, func() (<-chan struct{}, error) {
		j, ok := e.reg.getLocked(id)
		if !ok {
			return nil, fmt.Errorf("%w %q", ErrUnknownRun, id)
		}
		select {
		case <-j.done:
			st = e.statusLocked(j)
			return nil, nil
		default:
			return j.done, nil
		}
	})
	return st, err
}

// await is the one wait loop behind every blocking read: Wait, the
// follow modes of the sweep-results and ingest-metrics streams, and a
// chunk PUT pacing behind the pump. It runs check under reg.mu until
// check returns no channel, then returns check's error; check captures
// its result in the caller's closure. Otherwise it waits, with the
// lock released, for that channel to close or for ctx to end.
func (e *Engine) await(ctx context.Context, check func() (<-chan struct{}, error)) error {
	for {
		e.reg.mu.Lock()
		wait, err := check()
		e.reg.mu.Unlock()
		if wait == nil {
			return err
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Cancel aborts a queued or running job of any kind. Queued jobs finish
// cancelled without ever starting; running jobs see their context
// cancelled and unwind at the next poll (sim loop or the experiment's
// next simulation). Cancelling a sweep parent cancels its whole
// fan-out: pending children finish cancelled immediately, running ones
// unwind on their workers, and the parent goes terminal when the last
// child lands.
func (e *Engine) Cancel(id string) error {
	e.reg.mu.Lock()
	j, ok := e.reg.getLocked(id)
	if !ok {
		e.reg.mu.Unlock()
		return fmt.Errorf("%w %q", ErrUnknownRun, id)
	}
	if j.Kind == KindSweep {
		if j.State.Terminal() || j.sweep.cancelled {
			state := j.State
			e.reg.mu.Unlock()
			return fmt.Errorf("%w: %s is %s", ErrNotCancellable, id, state)
		}
		e.cancelSweepLocked(j, time.Now())
		e.reg.mu.Unlock()
		return nil
	}
	switch j.State {
	case StateQueued:
		e.finishLocked(j, StateCancelled, context.Canceled, time.Now())
		e.reg.mu.Unlock()
		return nil
	case StateRunning:
		cancel := j.cancel
		e.reg.mu.Unlock()
		cancel()
		return nil
	default:
		e.reg.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrNotCancellable, id, j.State)
	}
}

// ExperimentInfo describes one regenerable table/figure.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Experiments lists every experiment in paper order.
func Experiments() []ExperimentInfo {
	all := experiments.All()
	out := make([]ExperimentInfo, len(all))
	for i, x := range all {
		out[i] = ExperimentInfo{ID: x.ID, Title: x.Title}
	}
	return out
}

// Retry-After hint bounds: never tell a client to come back sooner
// than a second (sub-second retries are the hot-loop the hint exists to
// prevent) or later than a minute (past that the estimate says more
// about a backlog spike than about when a slot frees up).
const (
	retryAfterFloor = time.Second
	retryAfterCeil  = time.Minute
)

// RetryAfterHint estimates when an overloaded client should retry:
// the observed mean job wall time (across both kinds — they share the
// queue being drained) times the jobs queued per worker — an estimate
// of the time to drain the current backlog — clamped to
// [retryAfterFloor, retryAfterCeil]. Before any job has completed
// there is no observation, and the hint is the floor.
func (e *Engine) RetryAfterHint() time.Duration {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	return e.retryAfterHintLocked()
}

// retryAfterHintLocked is RetryAfterHint; reg.mu must be held.
func (e *Engine) retryAfterHintLocked() time.Duration {
	hint := retryAfterFloor
	if completed := e.ctr.completedTotal(); completed > 0 {
		mean := time.Duration(uint64(e.ctr.RunWallNS) / completed)
		workers := e.pool.Workers()
		if workers < 1 {
			workers = 1
		}
		// +1: the rejected submission itself also needs a slot.
		if est := mean * time.Duration(e.pool.QueueDepth()+1) / time.Duration(workers); est > hint {
			hint = est
		}
	}
	if hint > retryAfterCeil {
		hint = retryAfterCeil
	}
	return hint
}

// RetryAfterSeconds renders the hint in whole seconds, rounded up —
// the granularity the Retry-After header speaks.
func (e *Engine) RetryAfterSeconds() int {
	return int((e.RetryAfterHint() + time.Second - 1) / time.Second)
}

// Metrics snapshots the runtime counters and gauges.
func (e *Engine) Metrics() MetricsSnapshot {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	s := e.ctr.snapshot()
	s.SweepStreamsBuilt = e.streamsBuilt.Load()
	s.QueueDepth = e.pool.QueueDepth()
	s.ActiveJobs = e.pool.Active()
	s.Workers = e.pool.Workers()
	s.QueueLimit = e.pool.MaxQueue()
	s.RetryAfterHintNS = int64(e.retryAfterHintLocked())
	s.CacheSize = e.reg.resultsLocked()
	s.RetainRuns = e.reg.retain
	s.RunTimeoutNS = int64(e.runTimeout)
	s.MaxSweepPoints = e.maxSweepPoints
	s.CatalogWorkloads = NumWorkloads()
	s.CatalogSystems = NumSystems()
	s.MaxIngests = e.maxIngests
	s.RegistrySize = e.reg.sizeLocked()
	s.IngestSessionsActive = len(e.liveIngests)
	return s
}

// Health levels reported by Engine.Health. Degraded is still HTTP 200 —
// the daemon is serving — but load balancers reading /healthz should
// start shedding before saturation turns into hard 429s.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
)

// Health is the /healthz payload.
type Health struct {
	Status string `json:"status"`
	// Reasons lists why the daemon is degraded, in a fixed order (queue
	// saturation first, then journal); empty when ok.
	Reasons []string `json:"reasons,omitempty"`
}

// Health reports ok, or degraded when the queue is at ≥90% of its bound
// or the most recent journal append failed. Both conditions clear
// themselves: the queue by draining, the journal by the next successful
// write.
func (e *Engine) Health() Health {
	var reasons []string
	if limit := e.pool.MaxQueue(); limit > 0 {
		if depth := e.pool.QueueDepth(); depth*10 >= limit*9 {
			reasons = append(reasons, fmt.Sprintf("queue depth %d at >=90%% of bound %d", depth, limit))
		}
	}
	e.reg.mu.Lock()
	journalFailed := e.ctr.JournalLastWriteFailed
	e.reg.mu.Unlock()
	if journalFailed {
		reasons = append(reasons, "last journal write failed")
	}
	if len(reasons) > 0 {
		return Health{Status: HealthDegraded, Reasons: reasons}
	}
	return Health{Status: HealthOK}
}

// Shutdown stops accepting work and drains the pool: queued and running
// jobs complete normally. If ctx expires first, in-flight work is
// cancelled and Shutdown still waits for it to unwind — the pool's
// worker goroutines are always reaped, leak-free, before the typed
// ErrDrainIncomplete (wrapping ctx.Err()) is returned.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.reg.mu.Lock()
	e.closed = true
	// Flag live ingest sessions for drain: each pump finishes its staged
	// backlog, then fails the session with ErrIngestInterrupted — the
	// typed signal that the stream was cut short by shutdown, not by the
	// client.
	for _, j := range e.liveIngests {
		j.ingest.shut = true
		j.ingest.wakeLocked()
	}
	e.reg.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.pool.Close()
		e.ingestWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		e.baseCancel()
		<-drained
		return fmt.Errorf("%w: %w", ErrDrainIncomplete, ctx.Err())
	}
}

// Close is Shutdown with no deadline: full drain.
func (e *Engine) Close() {
	_ = e.Shutdown(context.Background()) //hopplint:errok Background ctx never expires, so Shutdown cannot fail
}

package service

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// JobKind distinguishes the four units of work the engine serves. All
// share one registry, ID space, retention policy, journal, and terminal
// transition; sim and experiment jobs also share admission control, the
// worker pool, and the per-run deadline. The kind decides what executes
// and how the result serializes.
type JobKind string

// The job kinds: workload × system simulations, experiment
// (table/figure) regenerations, sweeps — grid submissions whose parent
// job fans out into sim children and aggregates their states — and
// ingests: client-streamed HMTT traces flowing through the live
// HPD→prefetcher pipeline.
const (
	KindSim        JobKind = "sim"
	KindExperiment JobKind = "experiment"
	KindSweep      JobKind = "sweep"
	KindIngest     JobKind = "ingest"
)

// jobKinds lists every kind in fixed order, so anything iterating kinds
// (metrics snapshots, journal summaries) stays deterministic without
// ranging over a map.
var jobKinds = []JobKind{KindSim, KindExperiment, KindSweep, KindIngest}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: Queued → Running → one of Done/Failed/Cancelled.
// Cache hits are born Done.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one admitted unit of work in the registry, of any kind. All
// fields except progress are guarded by the owning registry's mutex;
// progress is written lock-free by the experiment callback while the
// job executes.
type Job struct {
	ID    string
	Kind  JobKind
	State JobState
	// Deadline is the wall-clock instant the executing job's context
	// expires; zero while queued or when no -run-timeout is configured.
	Deadline time.Time
	// Result holds the serialized payload once State is done: marshaled
	// sim.Metrics for sim jobs, rendered table text for experiment jobs.
	Result []byte

	// Sim is the normalized payload of a KindSim job; Exp of a
	// KindExperiment job; sweep of a KindSweep job. Exactly one is
	// non-nil.
	Sim *RunRequest
	Exp *ExperimentRequest

	key       string // canonical request key: the job table's index
	cached    bool
	submitted time.Time
	started   time.Time
	finished  time.Time // terminal-transition time, drives age eviction
	wallNS    int64
	simNS     int64
	errMsg    string
	progress  atomic.Int64 // completed simulations (experiment + sweep jobs)
	cancel    func()
	done      chan struct{}
	// doneClosed guards the single close of done: replay closes it for
	// jobs born terminal, finishLocked for everything else.
	doneClosed bool

	// Sweep and dedupe linkage (all guarded by reg.mu).
	//
	// sweep is the parent-side fan-out state of a KindSweep job.
	// parent/parentID tie a sweep child back to its aggregating parent
	// (parent is nil for children restored from the journal — the ID
	// alone survives a restart). leader marks a follower: a keyed job
	// whose canonical key matched a live job at admission; it holds no
	// pool slot and inherits the leader's result at the leader's
	// terminal transition. followers is the leader-side mirror. inPool
	// marks a sweep child whose execute closure has been handed to the
	// worker pool.
	sweep     *sweepState
	parent    *Job
	parentID  string
	leader    *Job
	followers []*Job
	inPool    bool

	// ingest is the live session state of a KindIngest job. Ingest jobs
	// never hold a pool worker: their pump goroutine is owned by the
	// session and tracked by the engine's ingestWG.
	ingest *ingestSession
}

// spec echoes the job's request; reg.mu must be held.
func (j *Job) spec() JobSpec {
	s := JobSpec{Progress: j.progress.Load()}
	switch {
	case j.Sim != nil:
		s.Workload, s.System, s.Frac, s.Seed, s.Quick = j.Sim.Workload, j.Sim.System, j.Sim.Frac, j.Sim.Seed, j.Sim.Quick
	case j.Exp != nil:
		s.Experiment, s.Seed, s.Quick = j.Exp.Experiment, j.Exp.Seed, j.Exp.Quick
	case j.ingest != nil:
		r := j.ingest.req
		s.Workload, s.System, s.Frac, s.Seed = r.Workload, r.System, r.Frac, r.Seed
	case j.sweep != nil:
		s.Quick = j.sweep.req.Quick
	}
	return s
}

// payload is a done job's Result in the form status and journal echo
// it: the serialized metrics of a sim job, the rendered text of an
// experiment job; reg.mu must be held.
func (j *Job) payload() (metrics json.RawMessage, output string) {
	switch {
	case j.State != StateDone:
	case j.Kind == KindSim:
		metrics = j.Result
	case j.Kind == KindExperiment:
		output = string(j.Result)
	}
	return metrics, output
}

// registry is the engine's one job table: the bounded window of recent
// jobs, where every admitted job of any kind lives from submission until
// retention evicts it, indexed by ID and by canonical request key. It
// owns the engine's primary mutex — submission, state transitions,
// snapshots, eviction and every counter serialize on reg.mu, and the
// lock order is reg.mu → pool.mu, taken nowhere in reverse.
type registry struct {
	mu sync.Mutex

	retain    int
	retainAge time.Duration

	jobs   map[string]*Job
	order  []string // submission order; may hold evicted IDs until compaction
	term   []string // terminal jobs, oldest-finished first (eviction order)
	nextID int
	// byKey maps each canonical request key to the live job computing it
	// or, once none is live, the newest retained done job holding its
	// result: the dedupe index and the result cache in one. Eviction
	// drops a key's entry with its job.
	byKey map[string]*Job

	ctr     counters
	journal *Journal // optional; jobs are journaled on terminal transition
	// jerrBurst suppresses repeat logging inside one error burst: the
	// first failed append after a success logs, later failures stay
	// silent until a write succeeds again. Guarded by reg.mu.
	jerrBurst bool
	logf      func(format string, args ...any)
}

// newRegistry builds a registry bounded by retain entries and retainAge
// of terminal-job age (<= 0 disables the age bound). journal may be
// nil; logf must not be.
func newRegistry(retain int, retainAge time.Duration, journal *Journal, logf func(format string, args ...any)) *registry {
	if retain <= 0 {
		retain = DefaultRetainRuns
	}
	return &registry{
		retain:    retain,
		retainAge: retainAge,
		jobs:      make(map[string]*Job),
		byKey:     make(map[string]*Job),
		ctr:       newCounters(),
		journal:   journal,
		logf:      logf,
	}
}

// addLocked admits a job: assigns the next ID and records it in
// submission order. reg.mu must be held. Admission control runs before
// this — a rejected submission never reaches the registry, which is the
// PR 2 invariant both kinds now share.
func (g *registry) addLocked(j *Job) {
	g.nextID++
	j.ID = jobID(g.nextID)
	g.jobs[j.ID] = j
	g.order = append(g.order, j.ID)
}

// jobID renders the n-th admitted job's ID. Sim and experiment jobs
// share one ID space (r000042), so GET /v1/runs/{id} is kind-agnostic.
func jobID(n int) string { return fmt.Sprintf("r%06d", n) }

// jobIDNum parses a jobID back to its sequence number; replay uses it
// to advance nextID past recovered IDs so fresh submissions never
// collide with journaled history.
func jobIDNum(id string) (int, bool) {
	num, ok := strings.CutPrefix(id, "r")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// restoreLocked re-admits a journaled job during replay under its
// original ID and — the load-bearing difference from markTerminalLocked
// — never re-journals it (its entry is already on disk). Only a terminal
// job enters the eviction list: a resumable ingest session stays out of
// it until replay restores it again at its terminal line. A duplicate
// ID overwrites the earlier replayed job in place (later journal lines
// are newer truth) without growing order/term. reg.mu must be held.
func (g *registry) restoreLocked(j *Job) {
	if n, ok := jobIDNum(j.ID); ok && n > g.nextID {
		g.nextID = n
	}
	prev, exists := g.jobs[j.ID]
	if !exists {
		g.order = append(g.order, j.ID)
	}
	if j.State.Terminal() && (!exists || prev == j) {
		g.term = append(g.term, j.ID)
	}
	g.jobs[j.ID] = j
}

// getLocked looks a job up; reg.mu must be held.
func (g *registry) getLocked(id string) (*Job, bool) {
	j, ok := g.jobs[id]
	return j, ok
}

// kindLocked resolves id to a job of kind k, or of any kind when k is
// empty; g.mu must be held. IDs of other kinds answer the kind's
// not-found error (ErrNotSweep, ErrNotIngest), which the HTTP layer
// maps to 404 like an unknown ID.
func (g *registry) kindLocked(id string, k JobKind) (*Job, error) {
	j, ok := g.getLocked(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownRun, id)
	}
	if k != "" && j.Kind != k {
		notKind := ErrNotSweep
		if k == KindIngest {
			notKind = ErrNotIngest
		}
		return nil, fmt.Errorf("%w: %s is a %s job", notKind, id, j.Kind)
	}
	return j, nil
}

// sizeLocked reports the live job count; reg.mu must be held.
func (g *registry) sizeLocked() int { return len(g.jobs) }

// markTerminalLocked records a job's transition into a terminal state,
// journals it, and evicts the oldest terminal jobs past the retention
// bounds; reg.mu must be held. Every path that finishes a job goes
// through here, which is what keeps the registry O(retention +
// in-flight) instead of O(total submissions). Journaling happens at the
// terminal transition — not at eviction — so a crash between finish and
// eviction loses nothing and `-journal-replay` can rebuild the full
// terminal history.
func (g *registry) markTerminalLocked(j *Job, now time.Time) {
	j.finished = now
	g.term = append(g.term, j.ID)
	g.journalLocked(j)
	g.evictLocked(now)
}

// journalLocked appends one job's snapshot to the journal — every job
// at its terminal transition, sweep parents also at submission, ingest
// sessions also at open and at every chunk high-water mark. It is
// best-effort: an append error counts in journal_write_errors and logs
// once per error burst, but never fails the job or blocks eviction —
// the registry bound is load-bearing, the audit trail is not. reg.mu
// must be held.
func (g *registry) journalLocked(j *Job) {
	if g.journal == nil {
		return
	}
	if err := g.journal.Append(journalEntry(j)); err != nil {
		g.ctr.JournalWriteErrors++
		g.ctr.JournalLastWriteFailed = true
		if !g.jerrBurst {
			g.jerrBurst = true
			g.logf("journal append failed for job %s: %v (suppressing repeats until a write succeeds)", j.ID, err)
		}
		return
	}
	g.ctr.JournalWrites++
	g.ctr.JournalLastWriteFailed = false
	if g.jerrBurst {
		g.jerrBurst = false
		g.logf("journal append recovered at job %s", j.ID)
	}
}

// evictLocked drops terminal jobs beyond the retention count or older
// than the retention age; reg.mu must be held. g.term is ordered by
// finish time, so eviction only ever pops from its front. Eviction is
// pure memory management: the evicted job was already journaled when it
// went terminal, so nothing is written on the way out. The
// submission-order slice is compacted lazily once evicted IDs dominate
// it, keeping both structures bounded without an O(n) scan per eviction.
func (g *registry) evictLocked(now time.Time) {
	n := 0
	for n < len(g.term) {
		id := g.term[n]
		overCount := len(g.term)-n > g.retain
		j := g.jobs[id]
		overAge := g.retainAge > 0 && now.Sub(j.finished) > g.retainAge
		if !overCount && !overAge {
			break
		}
		if g.byKey[j.key] == j {
			delete(g.byKey, j.key)
		}
		delete(g.jobs, id)
		n++
	}
	if n == 0 {
		return
	}
	g.term = g.term[n:]
	g.ctr.RegistryEvictions += uint64(n)
	if len(g.order) > 2*len(g.jobs) {
		kept := make([]string, 0, len(g.jobs))
		for _, id := range g.order {
			if _, ok := g.jobs[id]; ok {
				kept = append(kept, id)
			}
		}
		g.order = kept
	}
}

// resultsLocked counts the keys whose done job is still retained — the
// cache_size gauge; reg.mu must be held.
func (g *registry) resultsLocked() int {
	n := 0
	for _, j := range g.byKey {
		if j.State == StateDone {
			n++
		}
	}
	return n
}

// listLocked appends a snapshot of every retained job in submission
// order; reg.mu must be held. Evicted jobs no longer appear; under
// sustained load the list plateaus at the retention bound plus whatever
// is queued or running.
func (g *registry) listLocked(snap func(*Job) RunStatus) []RunStatus {
	out := make([]RunStatus, 0, len(g.jobs))
	for _, id := range g.order {
		if j, ok := g.jobs[id]; ok {
			out = append(out, snap(j))
		}
	}
	return out
}

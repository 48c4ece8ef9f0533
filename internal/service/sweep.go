package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hopp/internal/workload"
)

// Sweep errors.
var (
	// ErrBadSweep rejects a sweep whose grid cannot be expanded: empty
	// workload/system lists, an unknown expand mode, or zip lists whose
	// lengths disagree. HTTP 400.
	ErrBadSweep = errors.New("service: bad sweep grid")
	// ErrSweepTooLarge rejects a grid that expands past the configured
	// -max-sweep-points bound. HTTP 400 — retrying the same grid cannot
	// succeed; split it instead.
	ErrSweepTooLarge = errors.New("service: sweep grid exceeds the point bound")
	// ErrNotSweep is returned by the sweep-specific lookups when the ID
	// names a job of another kind. HTTP 404 — the sweep surface only
	// speaks sweeps.
	ErrNotSweep = errors.New("service: job is not a sweep")
)

// DefaultMaxSweepPoints bounds one sweep's expanded grid when
// Options.MaxSweepPoints is unset. The paper's largest tables are a few
// hundred points; 1024 leaves room for seed replication without letting
// one submission conjure unbounded registry growth.
const DefaultMaxSweepPoints = 1024

// Sweep expansion modes: cartesian crosses every list; zip walks the
// lists in lockstep (length-1 lists broadcast).
const (
	ExpandCartesian = "cartesian"
	ExpandZip       = "zip"
)

// SweepRequest is one grid submission — the payload of a KindSweep job.
// The engine expands it into KindSim child jobs (one per point) that
// ride the shared worker pool, deadline, journal, and metrics, while
// the parent job aggregates their states.
type SweepRequest struct {
	// Workloads/Systems name catalog entries; both must be non-empty.
	Workloads []string `json:"workloads"`
	Systems   []string `json:"systems"`
	// Fracs lists local-memory fractions in [0, 1); empty means [0.5].
	Fracs []float64 `json:"fracs,omitempty"`
	// Seeds lists run seeds; empty means [1].
	Seeds []int64 `json:"seeds,omitempty"`
	// Expand picks the grid shape: "cartesian" (default) crosses every
	// list in workload → system → frac → seed order; "zip" pairs the
	// lists elementwise, broadcasting length-1 lists.
	Expand string `json:"expand,omitempty"`
	// Quick shrinks every point's workload ~4x.
	Quick bool `json:"quick,omitempty"`
}

// Points validates the grid and returns the normalized request plus the
// expanded points in deterministic order — the order children are
// admitted, IDs are assigned, and results stream. Every point is a
// fully normalized RunRequest, so a sweep child shares its canonical
// key with an identical standalone submission; that key identity
// is what lets overlapping sweeps and plain runs dedupe against each
// other.
func (r SweepRequest) Points() (SweepRequest, []RunRequest, error) {
	n := r
	n.Workloads = normalizeNames(r.Workloads)
	n.Systems = normalizeNames(r.Systems)
	if len(n.Workloads) == 0 {
		return n, nil, fmt.Errorf("%w: workloads list is empty", ErrBadSweep)
	}
	if len(n.Systems) == 0 {
		return n, nil, fmt.Errorf("%w: systems list is empty", ErrBadSweep)
	}
	if len(n.Fracs) == 0 {
		n.Fracs = []float64{0.5}
	}
	if len(n.Seeds) == 0 {
		n.Seeds = []int64{1}
	}
	switch n.Expand {
	case "", ExpandCartesian:
		n.Expand = ExpandCartesian
	case ExpandZip:
	default:
		return n, nil, fmt.Errorf("%w: unknown expand mode %q", ErrBadSweep, r.Expand)
	}

	var points []RunRequest
	add := func(w, s string, f float64, seed int64) error {
		frac := f
		norm, _, err := RunRequest{Workload: w, System: s, Frac: &frac, Seed: seed, Quick: n.Quick}.Normalize()
		if err != nil {
			return fmt.Errorf("%w: point %d: %w", ErrBadSweep, len(points), err)
		}
		points = append(points, norm)
		return nil
	}
	if n.Expand == ExpandCartesian {
		for _, w := range n.Workloads {
			for _, s := range n.Systems {
				for _, f := range n.Fracs {
					for _, seed := range n.Seeds {
						if err := add(w, s, f, seed); err != nil {
							return n, nil, err
						}
					}
				}
			}
		}
		return n, points, nil
	}
	// Zip: lists advance in lockstep; every list is either full length
	// or length 1 (broadcast).
	lists := []struct {
		name string
		len  int
	}{
		{"workloads", len(n.Workloads)},
		{"systems", len(n.Systems)},
		{"fracs", len(n.Fracs)},
		{"seeds", len(n.Seeds)},
	}
	total := 1
	for _, l := range lists {
		if l.len > total {
			total = l.len
		}
	}
	for _, l := range lists {
		if l.len != 1 && l.len != total {
			return n, nil, fmt.Errorf("%w: zip list %s has %d entries, want 1 or %d", ErrBadSweep, l.name, l.len, total)
		}
	}
	for i := 0; i < total; i++ {
		w := n.Workloads[min(i, len(n.Workloads)-1)]
		s := n.Systems[min(i, len(n.Systems)-1)]
		f := n.Fracs[min(i, len(n.Fracs)-1)]
		seed := n.Seeds[min(i, len(n.Seeds)-1)]
		if err := add(w, s, f, seed); err != nil {
			return n, nil, err
		}
	}
	return n, points, nil
}

func normalizeNames(in []string) []string {
	out := make([]string, 0, len(in))
	for _, s := range in {
		s = strings.ToLower(strings.TrimSpace(s))
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

// SweepStatus is the aggregate fan-out state of a sweep parent,
// embedded in its RunStatus and journaled at its terminal transition.
// Cached counts points served without a simulation of their own
// (result hits plus live-job dedupe); Lost counts points whose
// child jobs could not be recovered after a restart (only non-zero on
// parents restored from the journal).
type SweepStatus struct {
	Workloads []string  `json:"workloads"`
	Systems   []string  `json:"systems"`
	Fracs     []float64 `json:"fracs"`
	Seeds     []int64   `json:"seeds"`
	Expand    string    `json:"expand"`

	Total     int `json:"total"`
	Queued    int `json:"queued,omitempty"`
	Running   int `json:"running,omitempty"`
	Done      int `json:"done"`
	Failed    int `json:"failed,omitempty"`
	Cancelled int `json:"cancelled,omitempty"`
	Cached    int `json:"cached"`
	Lost      int `json:"lost,omitempty"`

	// Children lists the child job IDs in expansion order; each is
	// pollable via GET /v1/runs/{id} like any sim job.
	Children []string `json:"children,omitempty"`
}

// SweepPoint is one line of GET /v1/sweeps/{id}/results: a point's
// request coordinates plus its terminal outcome. Lines stream in
// expansion order, so two reads of a finished sweep are byte-identical.
type SweepPoint struct {
	Index    int             `json:"index"`
	ID       string          `json:"id,omitempty"`
	Workload string          `json:"workload,omitempty"`
	System   string          `json:"system,omitempty"`
	Frac     float64         `json:"frac"`
	Seed     int64           `json:"seed"`
	State    JobState        `json:"state"`
	Cached   bool            `json:"cached,omitempty"`
	SimNS    int64           `json:"sim_ns,omitempty"`
	Error    string          `json:"error,omitempty"`
	Metrics  json.RawMessage `json:"metrics,omitempty"`
}

// sweepState is the parent-side fan-out state of a KindSweep job. All
// fields except streams are guarded by reg.mu; streams has its own
// mutex because stream generation happens on workers, outside the
// registry lock.
type sweepState struct {
	req      SweepRequest // normalized grid, echoed in status + journal
	points   []RunRequest // expansion-ordered point requests
	children []*Job       // live fan-out; nil on parents restored from the journal
	childIDs []string     // expansion-ordered child IDs (always set)

	// Pacing: at most window children occupy pool slots at once, so one
	// giant sweep cannot monopolize the shared queue — other clients'
	// submissions interleave with the fan-out. next is the scan cursor
	// into children for the next pool submission; inPool counts children
	// currently holding slots; terminal counts settled children.
	window   int
	next     int
	inPool   int
	terminal int

	cancelled bool
	streams   *streamCache
	// final freezes the aggregate at the parent's terminal transition;
	// it is also what journal replay restores, so a finished sweep's
	// status is byte-identical across a restart.
	final *SweepStatus
}

// streamCache memoizes frozen workload access streams within one sweep,
// keyed by (workload, quick, seed) — the tuple the stream is a pure
// function of. Each distinct stream is generated exactly once, on the
// first worker that needs it, and shared read-only by every (system,
// frac) child that consumes it.
type streamCache struct {
	mu      sync.Mutex
	entries map[string]*streamEntry
}

type streamEntry struct {
	once   sync.Once
	frozen *workload.Frozen
}

func newStreamCache() *streamCache {
	return &streamCache{entries: make(map[string]*streamEntry)}
}

// get returns a fresh replayer over the point's frozen stream, building
// the stream on first use and ticking built. A panic during the build
// (a malformed workload program) is contained by the calling worker's
// runContained; later callers of the same key see a plain error.
func (sc *streamCache) get(req RunRequest, built *atomic.Uint64) (*workload.Base, error) {
	key := fmt.Sprintf("%s|%t|%d", req.Workload, req.Quick, req.Seed)
	sc.mu.Lock()
	ent, ok := sc.entries[key]
	if !ok {
		ent = &streamEntry{}
		sc.entries[key] = ent
	}
	sc.mu.Unlock()
	ent.once.Do(func() {
		gen, ok := NewWorkload(req.Workload, req.Quick)
		if !ok {
			return // admission validated the name; only catalog drift lands here
		}
		ent.frozen = workload.Freeze(gen, req.Seed)
		built.Add(1)
	})
	if ent.frozen == nil {
		return nil, fmt.Errorf("service: workload stream %s unavailable (earlier build failed)", key)
	}
	return ent.frozen.Replay(), nil
}

// SubmitSweep validates, expands, and admits a grid submission: one
// parent KindSweep job plus one KindSim child per point, registered in
// expansion order. Each point is classified against the job table as a
// standalone submission is: points whose result is still retained are
// born done (cached children); points whose key is live — queued or
// running anywhere in the engine, including another client's sweep or
// an earlier point of this one — become followers that inherit the
// leader's result instead of simulating again; the rest ride the worker
// pool, paced so at most `workers` children hold queue slots at once.
// Admission is all-or-nothing: if the initial pacing window does not
// fit under the queue bound the whole sweep is rejected with
// ErrOverloaded and records nothing.
func (e *Engine) SubmitSweep(req SweepRequest) (RunStatus, error) {
	norm, points, err := req.Points()
	if err != nil {
		return RunStatus{}, err
	}
	if len(points) > e.maxSweepPoints {
		return RunStatus{}, fmt.Errorf("%w: %d points > bound %d", ErrSweepTooLarge, len(points), e.maxSweepPoints)
	}

	now := time.Now()
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	if e.closed {
		return RunStatus{}, ErrClosed
	}
	e.reg.evictLocked(now)

	parent := &Job{
		Kind:      KindSweep,
		State:     StateRunning,
		submitted: now,
		started:   now,
		done:      make(chan struct{}),
	}
	sw := &sweepState{
		req:     norm,
		points:  points,
		window:  e.pool.Workers(),
		streams: newStreamCache(),
	}
	parent.sweep = sw

	// Classify every point against the job table — result hit, follower
	// of a live job, or runnable — and against the points before it, so
	// duplicates within the grid simulate once too.
	children := make([]*Job, len(points))
	pending := make(map[string]*Job, len(points))
	var runnable []*Job
	for i := range points {
		_, key, err := points[i].Normalize()
		if err != nil {
			return RunStatus{}, err // unreachable: Expand normalized each point
		}
		c := &Job{Kind: KindSim, key: key, Sim: &points[i], parent: parent, submitted: now, done: make(chan struct{})}
		children[i] = c
		if e.classifyLocked(c, pending) {
			pending[key] = c
			runnable = append(runnable, c)
		}
	}

	// Reserve pool slots for the initial pacing window atomically —
	// either the window fits and the sweep is admitted whole, or
	// nothing was enqueued and nothing gets recorded. Workers that
	// grab these closures immediately block on reg.mu until this
	// critical section finishes registration.
	initial := runnable
	if len(initial) > sw.window {
		initial = initial[:sw.window]
	}
	closures := make([]func(), len(initial))
	for i, c := range initial {
		c := c
		closures[i] = func() { e.execute(c) }
	}
	if err := e.pool.Submit(closures...); err != nil {
		if errors.Is(err, ErrQueueFull) {
			e.ctr.jobs[KindSweep].Rejected++
			return RunStatus{}, fmt.Errorf("%w (sweep window needs %d slots, queue bound %d)",
				ErrOverloaded, len(initial), e.pool.MaxQueue())
		}
		return RunStatus{}, ErrClosed
	}

	// Register parent first, then children in expansion order — one ID
	// space, contiguous, so the results stream reads like the grid.
	e.reg.addLocked(parent)
	sw.childIDs = make([]string, len(children))
	for i, c := range children {
		e.admitLocked(c)
		c.parentID = parent.ID
		sw.childIDs[i] = c.ID
	}
	sw.children = children
	for _, c := range initial {
		c.inPool = true
	}
	sw.inPool = len(initial)

	kc := e.ctr.jobs[KindSweep]
	kc.Submitted++
	kc.Started++ // the parent is live the moment its fan-out exists
	e.ctr.SweepPointsTotal += uint64(len(children))
	e.liveSweeps = append(e.liveSweeps, parent)

	// Journal the fan-out at submission (non-terminal entry): after a
	// crash mid-sweep, replay restores the parent as failed — never a
	// zombie in-progress job — with its child IDs intact, so recovered
	// children remain reachable through it.
	e.reg.journalLocked(parent)

	// Settle cache-hit children last, with the sweep fully wired: each
	// one ticks the parent's aggregate and, if the whole grid was
	// cached, completes the sweep before submission even returns.
	for _, c := range children {
		if c.cached {
			e.finishLocked(c, StateDone, nil, now)
		}
	}
	return e.statusLocked(parent), nil
}

// sweepChildDoneLocked settles one terminal child into its parent's
// aggregate, tops the pacing window back up, and completes the parent
// when the last child lands; reg.mu must be held (finishOneLocked
// path).
func (e *Engine) sweepChildDoneLocked(parent *Job, c *Job, now time.Time) {
	sw := parent.sweep
	sw.terminal++
	if c.inPool {
		c.inPool = false
		sw.inPool--
	}
	parent.progress.Add(1)
	switch c.State {
	case StateDone:
		e.ctr.SweepPointsCompleted++
		if c.cached {
			e.ctr.SweepPointsCached++
		}
	default:
		e.ctr.SweepPointsFailed++
	}
	e.advanceSweepLocked(parent, now)
	if sw.terminal == len(sw.children) {
		e.completeSweepLocked(parent, now)
	}
}

// advanceSweepLocked feeds pending children into the pool while the
// sweep's pacing window has room; reg.mu must be held. A full queue is
// not an error — the cursor simply parks, and the next terminal
// transition anywhere in the engine retries (finishOneLocked calls
// advanceSweepsLocked). A closed pool means shutdown: the remaining
// pending children finish cancelled so the parent can settle.
func (e *Engine) advanceSweepLocked(parent *Job, now time.Time) {
	sw := parent.sweep
	if sw.cancelled || parent.State.Terminal() {
		return
	}
	for sw.next < len(sw.children) && sw.inPool < sw.window {
		c := sw.children[sw.next]
		if c.State != StateQueued || c.leader != nil || c.inPool {
			sw.next++
			continue
		}
		err := e.pool.Submit(func() { e.execute(c) })
		if err == nil {
			c.inPool = true
			sw.inPool++
			sw.next++
			continue
		}
		if errors.Is(err, ErrQueueFull) {
			return
		}
		sw.next++
		e.finishLocked(c, StateCancelled, ErrClosed, now)
	}
}

// advanceSweepsLocked retries every live sweep's pacing window, in
// submission order; reg.mu must be held. Called on every terminal
// transition, because that is exactly when queue room frees up.
func (e *Engine) advanceSweepsLocked(now time.Time) {
	kept := e.liveSweeps[:0]
	for _, p := range e.liveSweeps {
		if p.State.Terminal() {
			continue
		}
		kept = append(kept, p)
	}
	e.liveSweeps = kept
	for _, p := range kept {
		e.advanceSweepLocked(p, now)
	}
}

// completeSweepLocked finalizes a parent whose last child just settled;
// reg.mu must be held. The aggregate is frozen into sw.final — the
// journal payload and the byte-stable status source from here on.
func (e *Engine) completeSweepLocked(parent *Job, now time.Time) {
	if parent.State.Terminal() {
		return
	}
	st := e.computeSweepStatusLocked(parent)
	state, cause := StateDone, error(nil)
	switch {
	case parent.sweep.cancelled:
		state, cause = StateCancelled, context.Canceled
	case st.Failed+st.Cancelled > 0:
		state, cause = StateFailed, fmt.Errorf("service: %d of %d sweep points failed or were cancelled", st.Failed+st.Cancelled, st.Total)
	}
	parent.wallNS = now.Sub(parent.submitted).Nanoseconds()
	parent.sweep.final = st
	e.finishLocked(parent, state, cause, now)
}

// cancelSweepLocked aborts a live sweep: pending and pool-queued
// children finish cancelled immediately, running children see their
// contexts cancelled and settle on their workers, and the parent goes
// terminal when the last child lands; reg.mu must be held.
func (e *Engine) cancelSweepLocked(parent *Job, now time.Time) {
	sw := parent.sweep
	sw.cancelled = true
	for _, c := range sw.children {
		switch c.State {
		case StateQueued:
			e.finishLocked(c, StateCancelled, context.Canceled, now)
		case StateRunning:
			c.cancel()
		}
	}
}

// settleFollowersLocked hands a just-terminal leader's result to every
// live follower, or — when the leader did not finish done — promotes
// the first follower to run the point itself; reg.mu must be held. The
// promotion bypasses the queue bound (ForceSubmit): the follower was
// admitted once already and is inheriting the slot the leader just
// freed, so one leader's cancellation must not cascade a transient 429
// into another client's sweep.
func (e *Engine) settleFollowersLocked(leader *Job, now time.Time) {
	fs := leader.followers
	leader.followers = nil
	live := fs[:0]
	for _, f := range fs {
		if !f.State.Terminal() {
			live = append(live, f)
		}
	}
	if len(live) == 0 {
		return
	}
	if leader.State == StateDone {
		for _, f := range live {
			f.cached, f.Result, f.simNS, f.leader = true, leader.Result, leader.simNS, nil
			e.finishLocked(f, StateDone, nil, now)
		}
		return
	}
	head, rest := live[0], live[1:]
	head.leader = nil
	head.followers = append(head.followers, rest...)
	for _, f := range rest {
		f.leader = head
	}
	e.reg.byKey[head.key] = head
	if err := e.pool.ForceSubmit(func() { e.execute(head) }); err != nil {
		e.finishLocked(head, StateCancelled, ErrClosed, now) // its settle pass promotes (and fails) the rest
		return
	}
	head.inPool = true
	if head.parent != nil {
		head.parent.sweep.inPool++
	}
}

// computeSweepStatusLocked aggregates a parent's live (or recovered)
// fan-out; reg.mu must be held. Parents restored from a mid-sweep
// journal have no child pointers — their children resolve by ID through
// the registry, and points whose jobs did not survive the crash count
// as Lost.
func (e *Engine) computeSweepStatusLocked(parent *Job) *SweepStatus {
	sw := parent.sweep
	st := sw.grid()
	count := func(c *Job) {
		switch c.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
			if c.cached {
				st.Cached++
			}
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	if sw.children != nil {
		for _, c := range sw.children {
			count(c)
		}
		return st
	}
	for _, id := range sw.childIDs {
		if c, ok := e.reg.getLocked(id); ok {
			count(c)
		} else {
			st.Lost++
		}
	}
	return st
}

// grid is the fixed part of the sweep's aggregate: the normalized grid
// and the expansion-ordered child IDs, every count zero.
func (sw *sweepState) grid() *SweepStatus {
	return &SweepStatus{
		Workloads: sw.req.Workloads,
		Systems:   sw.req.Systems,
		Fracs:     sw.req.Fracs,
		Seeds:     sw.req.Seeds,
		Expand:    sw.req.Expand,
		Total:     len(sw.childIDs),
		Children:  sw.childIDs,
	}
}

// sweepStatusLocked is the status-facing aggregate: the frozen terminal
// snapshot when one exists (live completion or journal replay — the
// same bytes either way), the live computation otherwise; reg.mu must
// be held.
func (e *Engine) sweepStatusLocked(parent *Job) *SweepStatus {
	if parent.sweep.final != nil {
		cp := *parent.sweep.final
		return &cp
	}
	return e.computeSweepStatusLocked(parent)
}

// SweepStatus returns one sweep parent's snapshot; IDs naming jobs of
// other kinds answer ErrNotSweep (HTTP 404).
func (e *Engine) SweepStatus(id string) (RunStatus, error) { return e.status(id, KindSweep) }

// SweepPointAt snapshots point i of a sweep. With wait set it blocks
// until the point is terminal (or ctx ends) — the follow mode of the
// results stream, which emits every point in expansion order as it
// lands. terminal reports whether the snapshot is final; the snapshot
// of a non-terminal point (wait unset) is returned but should not be
// treated as a result.
func (e *Engine) SweepPointAt(ctx context.Context, id string, i int, wait bool) (pt SweepPoint, terminal bool, err error) {
	err = e.await(ctx, func() (<-chan struct{}, error) {
		j, jerr := e.reg.kindLocked(id, KindSweep)
		if jerr != nil {
			return nil, jerr
		}
		sw := j.sweep
		if i < 0 || i >= len(sw.childIDs) {
			return nil, fmt.Errorf("%w: point %d of %d", ErrUnknownRun, i, len(sw.childIDs))
		}
		var c *Job
		pt, c = e.sweepPointLocked(sw, i)
		if terminal = c == nil || c.State.Terminal(); terminal || !wait {
			return nil, nil
		}
		return c.done, nil
	})
	if err != nil {
		return SweepPoint{}, false, err
	}
	return pt, terminal, nil
}

// SweepGroup is one line of GET /v1/sweeps/{id}/results?group-by=
// workload: the seed-aggregated outcome of one (workload, system, frac)
// grid point. Seeds are a sweep's replication axis, so the aggregation
// is mean and sample standard deviation of simulated completion time
// across the point's finished seeds — the paper-table shape (one row
// per workload × system × frac) without the client-side reduce.
type SweepGroup struct {
	Workload string  `json:"workload"`
	System   string  `json:"system"`
	Frac     float64 `json:"frac"`
	// Seeds counts the successfully finished points aggregated below.
	Seeds int `json:"seeds"`
	// Pending counts points not yet terminal (the snapshot excludes
	// them from the statistics); Failed counts failed/cancelled/lost
	// points.
	Pending int `json:"pending,omitempty"`
	Failed  int `json:"failed,omitempty"`
	// Cached counts aggregated points served without running.
	Cached int `json:"cached,omitempty"`
	// MeanSimNS/StddevSimNS summarize sim_ns across the Seeds points;
	// stddev is the sample deviation (0 with fewer than two seeds).
	MeanSimNS   float64 `json:"mean_sim_ns"`
	StddevSimNS float64 `json:"stddev_sim_ns"`
}

// SweepGroups aggregates a sweep's points across seeds, one group per
// distinct (workload, system, frac), in first-occurrence expansion
// order. Like the default results stream it snapshots: points still in
// flight are counted as pending, not waited for, so two calls on a
// finished sweep are byte-identical.
func (e *Engine) SweepGroups(id string) ([]SweepGroup, error) {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	j, err := e.reg.kindLocked(id, KindSweep)
	if err != nil {
		return nil, err
	}
	sw := j.sweep
	var (
		groups []SweepGroup
		sims   [][]float64 // per-group sim_ns samples, parallel to groups
		index  = make(map[string]int, len(sw.childIDs))
	)
	for i := range sw.childIDs {
		pt, c := e.sweepPointLocked(sw, i)
		// Frac is rendered with the key precision so grouping can't
		// split points the job table would merge.
		key := fmt.Sprintf("%s|%s|%.9g", pt.Workload, pt.System, pt.Frac)
		gi, seen := index[key]
		if !seen {
			gi = len(groups)
			index[key] = gi
			groups = append(groups, SweepGroup{Workload: pt.Workload, System: pt.System, Frac: pt.Frac})
			sims = append(sims, nil)
		}
		g := &groups[gi]
		switch {
		case c != nil && !c.State.Terminal():
			g.Pending++
		case pt.State == StateDone:
			g.Seeds++
			if pt.Cached {
				g.Cached++
			}
			sims[gi] = append(sims[gi], float64(pt.SimNS))
		default: // failed, cancelled, or lost
			g.Failed++
		}
	}
	for gi := range groups {
		g := &groups[gi]
		vals := sims[gi]
		if len(vals) == 0 {
			continue
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		g.MeanSimNS = sum / float64(len(vals))
		if len(vals) > 1 {
			ss := 0.0
			for _, v := range vals {
				d := v - g.MeanSimNS
				ss += d * d
			}
			g.StddevSimNS = math.Sqrt(ss / float64(len(vals)-1))
		}
	}
	return groups, nil
}

// sweepPointLocked renders point i; reg.mu must be held. The returned
// job is nil when the point's child no longer exists (post-replay loss
// or retention eviction), in which case the point reads as lost.
func (e *Engine) sweepPointLocked(sw *sweepState, i int) (SweepPoint, *Job) {
	pt := SweepPoint{Index: i}
	if i < len(sw.points) {
		p := sw.points[i]
		pt.Workload = p.Workload
		pt.System = p.System
		if p.Frac != nil {
			pt.Frac = *p.Frac
		}
		pt.Seed = p.Seed
	}
	var c *Job
	if sw.children != nil {
		c = sw.children[i]
	} else if i < len(sw.childIDs) {
		c, _ = e.reg.getLocked(sw.childIDs[i])
	}
	if i < len(sw.childIDs) {
		pt.ID = sw.childIDs[i]
	}
	if c == nil {
		pt.State = StateCancelled
		pt.Error = "point not recovered (crashed mid-flight or evicted)"
		return pt, nil
	}
	pt.ID = c.ID
	pt.State = c.State
	pt.Cached = c.cached
	pt.SimNS = c.simNS
	pt.Error = c.errMsg
	if c.State == StateDone {
		pt.Metrics = c.Result
	}
	return pt, c
}

// Package faults is a seeded, deterministic fault injector for the
// service layer's failure-path tests. Production code is threaded with
// named injection sites (a panic inside a run, a journal append, a pool
// submission, an HTTP read or write, an ingest chunk); a test arms the
// sites it cares about with rules and the code under test misbehaves
// exactly where and when the rule says — no wall clocks, no global
// rand, no sleeps, so a failing fault test replays identically under
// -race and on any machine.
//
// The two primitives:
//
//   - Injector: per-site hit counting plus a Rule deciding which hits
//     fire. Rules are pure functions of the hit number (Always, OnHits)
//     or of the injector's seeded PRNG, so a given (seed, rule, call
//     sequence) always fires the same faults.
//   - Gate: a context-aware latch for "slow" faults. A run parked on a
//     gate is deterministically slow — it stays parked until the test
//     opens the gate or the run's context is cancelled — which is how
//     queue pressure is built on demand without timing races.
//
// All Injector methods are nil-receiver safe: production code calls
// Hit/ErrAt unconditionally and a nil injector means "no faults", so
// the default path costs one nil check.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Canonical site names for the hoppd service layer. A site name is just
// a string — packages may invent their own — but the service engine,
// journal, pool, HTTP handlers and ingest sessions consume exactly these.
const (
	// SiteRunPanic fires a deliberate panic inside an executing job,
	// exercising the worker pool's panic containment.
	SiteRunPanic = "run.panic"
	// SiteRunSlow parks an executing job on the site's Gate until the
	// test opens it — deterministic slow runs and queue pressure.
	SiteRunSlow = "run.slow"
	// SiteJournalAppend fails a journal append with ErrInjected,
	// exercising the best-effort journal error accounting.
	SiteJournalAppend = "journal.append"
	// SitePoolSubmit fails a pool submission as if the queue were full,
	// exercising admission shedding without needing real backlog.
	SitePoolSubmit = "pool.submit"
	// SiteHTTPBodyRead fails a request-body read mid-stream with
	// ErrInjected — the connection that dies (or turns to garbage) while
	// the daemon is still decoding the submission.
	SiteHTTPBodyRead = "http.body.read"
	// SiteHTTPResultsWrite fails a write on the sweep-results NDJSON
	// stream, exercising the handler's unwind when the client is gone
	// mid-stream.
	SiteHTTPResultsWrite = "http.results.write"
	// SiteHTTPStreamStall parks the sweep-results stream on the site's
	// Gate — a deterministic slow-reading client. The handler stays
	// parked until the test opens the gate or the request context ends;
	// the engine keeps serving everyone else throughout.
	SiteHTTPStreamStall = "http.stream.stall"
	// SiteIngestChunkRead fails an ingest chunk-body read mid-chunk with
	// ErrInjected — the upload that tears partway through a PUT. The
	// session must stay resumable at its last acked chunk, never
	// poisoned.
	SiteIngestChunkRead = "ingest.chunk.read"
	// SiteIngestRingFull forces the ingest staging ring to report full,
	// tripping the session's paused state (429 + Retry-After) without
	// needing a genuinely slow pump.
	SiteIngestRingFull = "ingest.ring.full"
	// SiteIngestPumpStall parks an ingest session's pump on the site's
	// Gate — a deterministic slow consumer. Producers keep staging until
	// the ring fills and the paused backpressure path engages.
	SiteIngestPumpStall = "ingest.pump.stall"
)

// ErrInjected marks an error manufactured by the injector; production
// error handling must treat it like any other failure, and tests use
// errors.Is to prove the failure they observed is the one they forced.
var ErrInjected = errors.New("faults: injected error")

// Rule decides which hits at a site fire. hit is 1-based; rng is the
// injector's seeded source, shared so a fixed seed fixes every
// probabilistic decision across all sites in arrival order.
type Rule interface {
	fires(hit uint64, rng *rand.Rand) bool
}

type ruleFunc func(hit uint64, rng *rand.Rand) bool

func (f ruleFunc) fires(hit uint64, rng *rand.Rand) bool { return f(hit, rng) }

// Always fires on every hit.
//
//hopplint:testonly the service fault-matrix tests arm sites with it
func Always() Rule { return ruleFunc(func(uint64, *rand.Rand) bool { return true }) }

// OnHits fires on exactly the given 1-based hit numbers.
//
//hopplint:testonly the service fault-matrix tests arm sites with it
func OnHits(hits ...uint64) Rule {
	set := make(map[uint64]bool, len(hits))
	for _, h := range hits {
		set[h] = true
	}
	return ruleFunc(func(hit uint64, _ *rand.Rand) bool { return set[hit] })
}

// site is one armed injection point.
type site struct {
	rule  Rule
	hits  uint64
	fired uint64
	gate  *Gate
}

// Injector tracks hits and fires faults at named sites. One injector is
// shared across the engine, journal, pool, and limiter of a daemon
// under test; its mutex serializes decisions, so the seeded PRNG
// consumes draws in arrival order.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sites map[string]*site
}

// New builds an injector whose probabilistic rules draw from a source
// seeded with seed. No sites are armed; every Hit reports false until
// Enable.
//
//hopplint:testonly the service fault-matrix tests build their injector with it
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		sites: make(map[string]*site),
	}
}

// Enable arms (or re-arms) a site with a rule. Hit and fire counts are
// preserved across re-arming, so a test can switch a site from Always
// to Never and keep reading cumulative counters.
//
//hopplint:testonly the service fault-matrix tests arm sites with it
func (in *Injector) Enable(name string, r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.siteLocked(name).rule = r
}

// Disable disarms a site; later hits neither count nor fire. The
// site's Gate, if any, survives so parked waiters can still be released.
//
//hopplint:testonly the service ingest tests disarm sites mid-run with it
func (in *Injector) Disable(name string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.sites[name]; ok {
		s.rule = nil
	}
}

// Hit records one arrival at a site and reports whether the fault
// fires. Unarmed sites (and a nil injector — the production default)
// report false without counting.
func (in *Injector) Hit(name string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s, ok := in.sites[name]
	if !ok || s.rule == nil {
		return false
	}
	s.hits++
	if s.rule.fires(s.hits, in.rng) {
		s.fired++
		return true
	}
	return false
}

// ErrAt is Hit for error-shaped sites: when the site fires it returns a
// typed error wrapping ErrInjected, otherwise nil.
func (in *Injector) ErrAt(name string) error {
	if in.Hit(name) {
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
	return nil
}

// Fired reports how many hits at a site actually fired.
//
//hopplint:testonly the service sweep tests check a site fired with it
func (in *Injector) Fired(name string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.sites[name]; ok {
		return s.fired
	}
	return 0
}

// Gate returns the site's latch, creating it on first use. The same
// *Gate is returned for the life of the injector, so the code parking
// on it and the test releasing it always agree on the latch.
func (in *Injector) Gate(name string) *Gate {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.siteLocked(name)
	if s.gate == nil {
		s.gate = NewGate()
	}
	return s.gate
}

// siteLocked returns the named site, creating an unarmed one if needed;
// in.mu must be held.
func (in *Injector) siteLocked(name string) *site {
	s, ok := in.sites[name]
	if !ok {
		s = &site{}
		in.sites[name] = s
	}
	return s
}

// Gate is a one-way latch: Wait parks the caller until Open (or the
// caller's context ends), Waiters reports how many callers are parked.
// It is the deterministic replacement for "sleep to make this run
// slow": a test parks N runs, observes Waiters() == N (real queue
// pressure, no timing guess), then opens the gate.
type Gate struct {
	mu      sync.Mutex
	ch      chan struct{}
	open    bool
	waiters int
}

// NewGate builds a closed gate.
func NewGate() *Gate {
	return &Gate{ch: make(chan struct{})}
}

// Wait parks until the gate opens (nil) or ctx ends (ctx.Err()). An
// already-open gate returns immediately.
func (g *Gate) Wait(ctx context.Context) error {
	g.mu.Lock()
	if g.open {
		g.mu.Unlock()
		return nil
	}
	ch := g.ch
	g.waiters++
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.waiters--
		g.mu.Unlock()
	}()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Open releases every current and future waiter. Idempotent.
func (g *Gate) Open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.open {
		g.open = true
		close(g.ch)
	}
}

// Waiters reports callers currently parked in Wait.
//
//hopplint:testonly the service fault tests wait for parked runs with it
func (g *Gate) Waiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiters
}

// Package service is the long-lived simulation engine behind cmd/hoppd:
// a bounded worker pool executing submitted jobs in FIFO order, and one
// job table tracking every submission through its lifecycle — indexed
// by canonicalized request, so an identical submission is served from
// a retained result or follows the live job computing it — with the
// runtime counters kept under its lock. The package exists so that simulations are served —
// cancellable, cacheable, observable — instead of merely executed, the
// same shift HoPP itself makes from fault-driven on-demand work to an
// always-on pipeline (PAPER.md §III).
//
// Every unit of offered work is a Job: workload × system simulations
// (KindSim) and experiment regenerations (KindExperiment) flow through
// one admission-controlled pipeline — the same queue bound, per-run
// deadline, retention policy, journal, and per-kind metrics — instead
// of two parallel code paths; sweeps fan out into sim jobs, and ingest
// sessions share the registry, journal, and terminal transition.
//
// Determinism survives concurrency by construction: every job builds
// its own machines and workload generators from the canonical request,
// shares nothing with other jobs, and serializes its result once; hits
// and followers share those bytes, so identical requests return
// byte-identical results regardless of worker interleaving.
package service

import (
	"errors"
	"runtime"
	"sync"

	"hopp/internal/faults"
)

// Pool errors.
var (
	// ErrPoolClosed is returned by Submit after Close.
	ErrPoolClosed = errors.New("service: pool closed")
	// ErrQueueFull is returned by Submit when the pending queue is at
	// its configured bound; the caller decides how to shed the load.
	ErrQueueFull = errors.New("service: pool queue full")
)

// Pool is a bounded worker pool with a FIFO queue: submissions never
// block, jobs start in submission order, and at most `workers` jobs run
// at once. The queue itself may be bounded too — over-limit submissions
// fail fast with ErrQueueFull instead of growing memory without bound
// under sustained overload. Close drains every queued job before
// returning, which is what gives the daemon graceful shutdown.
type Pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []func()
	active   int
	closed   bool
	workers  int
	maxQueue int // 0 = unbounded
	wg       sync.WaitGroup

	inject *faults.Injector // optional; rejects submissions on demand in tests
}

// NewPool starts a pool of n workers (n <= 0 means GOMAXPROCS) whose
// pending queue holds at most maxQueue jobs; maxQueue <= 0 means
// unbounded.
func NewPool(n, maxQueue int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	p := &Pool{workers: n, maxQueue: maxQueue}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

// setInjector threads a fault injector into the pool; submissions then
// fail with ErrQueueFull whenever faults.SitePoolSubmit fires —
// saturation on demand, no real backlog needed.
func (p *Pool) setInjector(in *faults.Injector) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inject = in
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// MaxQueue returns the pending-queue bound; 0 means unbounded.
func (p *Pool) MaxQueue() int { return p.maxQueue }

// Submit enqueues jobs atomically, in order; each runs when a worker
// frees up, after every earlier submission has been picked up. With a
// bounded queue either every job fits under the bound and all are
// queued, or none is and Submit returns ErrQueueFull — sweep admission
// relies on that so a partially admitted grid can never wedge half a
// parent's children into the queue.
func (p *Pool) Submit(jobs ...func()) error { return p.enqueue(true, jobs) }

// ForceSubmit enqueues a job past the queue bound. It exists for
// follower promotion: when an in-flight job fails, the follower that
// was deduped onto it was already admitted once and is now inheriting a
// slot the leader's terminal transition just freed — bouncing it off
// admission control a second time would turn one transient failure into
// many. Only ErrPoolClosed can reject it.
func (p *Pool) ForceSubmit(job func()) error { return p.enqueue(false, []func(){job}) }

// enqueue appends jobs to the queue and wakes a worker per job. bounded
// subjects the append to the pool fault site and the queue bound;
// follower promotion alone skips both.
func (p *Pool) enqueue(bounded bool, jobs []func()) error {
	if len(jobs) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if bounded && (p.inject.Hit(faults.SitePoolSubmit) || p.maxQueue > 0 && len(p.queue)+len(jobs) > p.maxQueue) {
		return ErrQueueFull
	}
	p.queue = append(p.queue, jobs...)
	for range jobs {
		p.cond.Signal()
	}
	return nil
}

// QueueDepth reports jobs submitted but not yet started.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Active reports jobs currently executing.
func (p *Pool) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Close stops accepting submissions, drains the queue, waits for every
// in-flight job to finish, and then returns. Safe to call twice.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.active++
		p.mu.Unlock()

		job()

		p.mu.Lock()
		p.active--
		p.mu.Unlock()
	}
}

package core

import (
	"hopp/internal/flatmap"
	"hopp/internal/memsim"
	"hopp/internal/vclock"
	"hopp/internal/vmm"
)

// Backend is the machine-side contract the execution engine drives: page
// state queries for request deduplication, and the asynchronous remote
// read + early-PTE-injection path.
type Backend interface {
	// PageState classifies a page for deduplication.
	PageState(key memsim.PageKey) vmm.PageState
	// Fetch schedules an RDMA read for the page, issued at now. The
	// machine must inject the PTE when the page arrives and then invoke
	// onInjected with the key and the arrival time. ok is false when the
	// fetch cannot be issued (no remote copy).
	Fetch(now vclock.Time, key memsim.PageKey, onInjected func(key memsim.PageKey, arrival vclock.Time)) (ok bool)
	// InjectSwapCached injects the PTE for a page that already sits in
	// the local swapcache (landed there by the demand-path readahead):
	// no RDMA needed, the future fault becomes a DRAM hit. ok is false
	// when the page is no longer swapcached.
	InjectSwapCached(now vclock.Time, key memsim.PageKey) (ok bool)
	// FetchBulk moves all keys with a single transfer (§IV's 2 MB
	// huge-space swap): one request latency amortized over the window.
	// onInjected fires per page as the window lands.
	FetchBulk(now vclock.Time, keys []memsim.PageKey, onInjected func(key memsim.PageKey, arrival vclock.Time)) (ok bool)
}

// ExecStats counts execution engine activity; Hits/Issued is the
// prefetch accuracy of §VI-A.
type ExecStats struct {
	Requested       uint64 // pages requested by the trainer
	SkipResident    uint64 // deduplicated: already mapped or swapcached
	SkipInflight    uint64 // deduplicated: fetch already outstanding
	SkipCold        uint64 // never swapped out; nothing to fetch
	Issued          uint64 // RDMA reads issued
	InjectedInPlace uint64 // PTEs injected for already-swapcached pages
	Arrived         uint64 // pages injected after an RDMA read
	Hits            uint64 // injected pages first-touched by the app
	LateHits        uint64 // demand fault absorbed by an in-flight prefetch
	Evicted         uint64 // injected pages reclaimed before any touch
	BulkRequests    uint64 // §IV huge-space transfers issued

	IssuedByTier [4]uint64
	HitsByTier   [4]uint64

	// LeadSum/LeadCount aggregate timeliness T = firstHit − arrival.
	LeadSum   vclock.Duration
	LeadCount uint64
	// LeadBuckets histograms lead times: <10µs, <40µs (T_min), <100µs,
	// <1ms, <5ms (T_max), ≥5ms.
	LeadBuckets [6]uint64
}

// LeadBucketBounds are the upper bounds of LeadBuckets (the last bucket
// is unbounded).
var LeadBucketBounds = [5]vclock.Duration{
	10 * vclock.Microsecond,
	40 * vclock.Microsecond,
	100 * vclock.Microsecond,
	vclock.Millisecond,
	5 * vclock.Millisecond,
}

func (s *ExecStats) recordLead(lead vclock.Duration) {
	s.LeadSum += lead
	s.LeadCount++
	for i, b := range LeadBucketBounds {
		if lead < b {
			s.LeadBuckets[i]++
			return
		}
	}
	s.LeadBuckets[5]++
}

// Accuracy returns prefetch hits over prefetched pages (§VI-A), counting
// in-place PTE injections as prefetched pages too. Late hits count: the
// page was both prefetched and used.
func (s ExecStats) Accuracy() float64 {
	den := s.Issued + s.InjectedInPlace
	if den == 0 {
		return 0
	}
	return float64(s.Hits+s.LateHits) / float64(den)
}

// MeanLead returns average timeliness.
func (s ExecStats) MeanLead() vclock.Duration {
	if s.LeadCount == 0 {
		return 0
	}
	return s.LeadSum / vclock.Duration(s.LeadCount)
}

type issuedReq struct {
	stream  StreamRef
	tier    Tier
	arrival vclock.Time
	landed  bool
}

// Executor is the prefetch execution engine (§III-F): it deduplicates
// requests, reads pages from remote over RDMA, and injects PTEs as soon
// as pages return. It learns hits from the memory side rather than from
// page faults, so the offset feedback loop keeps working even though
// injected pages never fault.
type Executor struct {
	backend Backend
	algo    Algorithm
	// reqs tracks issued-and-not-yet-consumed prefetches by packed page
	// key. Requests live by value inside the flat map, so the steady
	// state issues and retires them without touching the heap.
	reqs        *flatmap.Map[issuedReq]
	stats       ExecStats
	minBulkFrac float64
	// injected is onInjected as a func value, built once so no fetch
	// allocates a callback.
	injected func(memsim.PageKey, vclock.Time)
}

// NewExecutor wires an executor to its machine backend and the
// algorithm that receives timeliness feedback.
func NewExecutor(backend Backend, algo Algorithm, params Params) *Executor {
	params.fill()
	x := &Executor{
		backend:     backend,
		algo:        algo,
		reqs:        flatmap.New[issuedReq](64),
		minBulkFrac: params.Bulk.MinRemoteFrac,
	}
	x.injected = x.onInjected
	return x
}

// Stats returns a copy of the counters.
func (x *Executor) Stats() ExecStats { return x.stats }

// Submit executes one prediction.
func (x *Executor) Submit(now vclock.Time, pred Prediction) {
	if pred.Bulk {
		x.submitBulk(now, pred)
		return
	}
	for _, vpn := range pred.Pages {
		key := memsim.PageKey{PID: pred.PID, VPN: vpn}
		pk := key.Pack()
		x.stats.Requested++
		if x.reqs.Has(pk) {
			x.stats.SkipInflight++
			continue
		}
		switch x.backend.PageState(key) {
		case vmm.Mapped:
			x.stats.SkipResident++
			continue
		case vmm.SwapCached:
			// The demand path's readahead already brought the page local;
			// injecting its PTE now turns the coming 2.3 µs prefetch-hit
			// into a 0.1 µs DRAM hit — the §VI-E early-injection gain.
			if x.backend.InjectSwapCached(now, key) {
				x.stats.InjectedInPlace++
				x.reqs.Put(pk, issuedReq{stream: pred.Stream, tier: pred.Tier, arrival: now, landed: true})
				x.stats.IssuedByTier[pred.Tier]++
			} else {
				x.stats.SkipResident++
			}
			continue
		case vmm.Untouched:
			// The page has never existed; there is nothing remote to
			// read. (The kernel cannot prefetch a page that was never
			// swapped out.)
			x.stats.SkipCold++
			continue
		}
		if !x.backend.Fetch(now, key, x.injected) {
			x.stats.SkipCold++
			continue
		}
		x.reqs.Put(pk, issuedReq{stream: pred.Stream, tier: pred.Tier})
		x.stats.Issued++
		x.stats.IssuedByTier[pred.Tier]++
	}
}

// submitBulk executes a §IV huge-space request: if enough of the window
// is actually remote, one transfer moves it all; otherwise the head of
// the window goes through the ordinary per-page path.
func (x *Executor) submitBulk(now vclock.Time, pred Prediction) {
	eligible := make([]memsim.PageKey, 0, len(pred.Pages))
	for _, vpn := range pred.Pages {
		key := memsim.PageKey{PID: pred.PID, VPN: vpn}
		x.stats.Requested++
		if x.reqs.Has(key.Pack()) {
			x.stats.SkipInflight++
			continue
		}
		if x.backend.PageState(key) != vmm.SwappedOut {
			x.stats.SkipResident++
			continue
		}
		eligible = append(eligible, key)
	}
	if float64(len(eligible)) < x.minBulkFrac*float64(len(pred.Pages)) {
		// Too much of the window is already local: degrade to the
		// ordinary path for the nearest page.
		if len(eligible) > 0 {
			single := pred
			single.Bulk = false
			single.Pages = []memsim.VPN{eligible[0].VPN}
			x.Submit(now, single)
		}
		return
	}
	if !x.backend.FetchBulk(now, eligible, x.injected) {
		x.stats.SkipCold += uint64(len(eligible))
		return
	}
	for _, key := range eligible {
		x.reqs.Put(key.Pack(), issuedReq{stream: pred.Stream, tier: pred.Tier})
		x.stats.Issued++
		x.stats.IssuedByTier[pred.Tier]++
	}
	x.stats.BulkRequests++
}

func (x *Executor) onInjected(key memsim.PageKey, arrival vclock.Time) {
	req := x.reqs.Ptr(key.Pack())
	if req == nil {
		return // already consumed as a late hit
	}
	req.landed = true
	req.arrival = arrival
	x.stats.Arrived++
}

// NoteLateHit records that a demand fault waited on an in-flight
// prefetch. The page was useful but late: feedback pushes the offset out.
func (x *Executor) NoteLateHit(key memsim.PageKey, now vclock.Time) {
	pk := key.Pack()
	req, ok := x.reqs.Get(pk)
	if !ok {
		return
	}
	x.stats.LateHits++
	x.stats.HitsByTier[req.tier]++
	// Lead time is ≤ 0: the page had not arrived when it was needed.
	x.algo.Feedback(req.stream, 0)
	x.reqs.Delete(pk)
}

// OnFirstHit records the first touch of an injected page: the prefetch
// paid off as a pure DRAM hit. Lead time feeds the offset controller.
func (x *Executor) OnFirstHit(key memsim.PageKey, now vclock.Time) {
	pk := key.Pack()
	req, ok := x.reqs.Get(pk)
	if !ok || !req.landed {
		return
	}
	lead := now.Sub(req.arrival)
	x.stats.Hits++
	x.stats.HitsByTier[req.tier]++
	x.stats.recordLead(lead)
	x.algo.Feedback(req.stream, lead)
	x.reqs.Delete(pk)
}

// OnEvicted records that a prefetched, injected page was reclaimed
// before ever being touched — the §II-C pollution cost of inaccurate
// early PTE injection. An unused eviction is the strongest "fetched too
// far ahead" signal there is, so it feeds the offset controller as an
// over-early arrival; without this, offsets would only ever ratchet up
// (late hits raise them, and wasted fetches would stay silent).
func (x *Executor) OnEvicted(key memsim.PageKey) {
	pk := key.Pack()
	req, ok := x.reqs.Get(pk)
	if !ok || !req.landed {
		return
	}
	x.stats.Evicted++
	x.algo.Feedback(req.stream, overEarlyLead)
	x.reqs.Delete(pk)
}

// overEarlyLead is a lead time guaranteed to exceed any sane TMax,
// signalling "pull the offset in".
const overEarlyLead = vclock.Duration(1 << 62)

// Prefetcher bundles the prediction algorithm and executor: HoPP's
// complete software data plane. The machine drains the MC's hot page
// area into OnHotPage.
type Prefetcher struct {
	// Algo is the active prediction algorithm.
	Algo Algorithm
	Exec *Executor

	dropShared bool // Params.DropShared
}

// NewPrefetcher builds the full software stack over a machine backend,
// selecting the prediction algorithm from Params.Algorithm.
func NewPrefetcher(params Params, backend Backend) *Prefetcher {
	params.fill()
	algo := NewAlgorithm(params)
	return &Prefetcher{
		Algo:       algo,
		Exec:       NewExecutor(backend, algo, params),
		dropShared: params.DropShared,
	}
}

// OnHotPage feeds one hot page record (already filtered to Mapped
// records) through training and executes any resulting prediction.
// shared carries the RPT shared-page flag.
func (p *Prefetcher) OnHotPage(now vclock.Time, pid memsim.PID, vpn memsim.VPN, shared bool) {
	if shared && p.dropShared {
		return
	}
	if pred, ok := p.Algo.Observe(now, pid, vpn); ok {
		p.Exec.Submit(now, pred)
	}
}

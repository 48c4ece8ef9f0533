// Package refsim is the reference machine: a naive re-implementation of
// sim.Machine, written from DESIGN.md §1 and §6 and the §II-A cost
// numbers, used by tests as the oracle of the machine's visit loop. It
// plays one access per loop trip and keeps every structure under the loop
// in the plainest form that states its rule: a map page table with
// container/list LRUs, caches and tables as per-set slices with timestamp
// LRU, a sorted-slice event queue. It reuses only the inputs and the
// systems under test — workload streams, the demand-path prefetchers
// System.NewFault builds, core.NewPrefetcher, the rdma fabric — and
// configuration values. DESIGN.md §6 lists what it builds naively, what it
// reuses and why. Only tests import it.
package refsim

import (
	"container/list"
	"fmt"
	"math"
	"sort"

	"hopp/internal/core"
	"hopp/internal/hpd"
	"hopp/internal/memsim"
	"hopp/internal/prefetch"
	"hopp/internal/rdma"
	"hopp/internal/sim"
	"hopp/internal/vclock"
	"hopp/internal/vmm"
	"hopp/internal/workload"
)

// Kernel constants the model states in DESIGN.md §6 (vmm keeps them
// unexported).
const (
	// refSwapCacheCap bounds each cgroup's uncharged swapcache pages;
	// global reclaim drops the oldest beyond it.
	refSwapCacheCap = 64
	// refInactiveProtect shields the most recent swapcache inserts
	// (machine-wide insert sequence) from cgroup reclaim.
	refInactiveProtect = 16
	// refSoftwareDelay is HoPP's hot-page-to-fetch-issue latency.
	refSoftwareDelay = vclock.Microsecond
	// refRPTEntryBytes is one packed RPT entry in DRAM (§III-C).
	refRPTEntryBytes = 8
	// refHotRecordBytes is one hot page record in the hot page area.
	refHotRecordBytes = 8
)

// refApp is one process: its stream, clock and regions.
type refApp struct {
	pid      memsim.PID
	gen      *workload.Base
	regions  []workload.Region
	now      vclock.Time
	done     bool
	finished vclock.Time
}

// refPage is one resident page: mapped (on its cgroup's active list) or
// swapcached (on its inactive list).
type refPage struct {
	key        memsim.PageKey
	ppn        memsim.PPN
	state      vmm.PageState
	injected   bool // mapped by PTE injection, not yet touched
	prefetched bool // arrived by a prefetch; kept through promotion
	charged    bool // counted against the cgroup
	seq        uint64
	elem       *list.Element
}

// refCgroup is one app's memory cgroup: front of each list is MRU.
type refCgroup struct {
	limit, charged   int
	active, inactive *list.List
}

// refFetch is one prefetch read in flight.
type refFetch struct {
	key        memsim.PageKey
	arrival    vclock.Time
	inject     bool
	onInjected func(memsim.PageKey, vclock.Time)
}

// refEvent is a scheduled callback.
type refEvent struct {
	when vclock.Time
	fn   func(vclock.Time)
}

// refQueue keeps events sorted by time; a new event goes after every
// event due at or before it, so ties fire in scheduling order.
type refQueue struct{ events []refEvent }

func (q *refQueue) schedule(when vclock.Time, fn func(vclock.Time)) {
	i := sort.Search(len(q.events), func(i int) bool { return q.events[i].when > when })
	q.events = append(q.events, refEvent{})
	copy(q.events[i+1:], q.events[i:])
	q.events[i] = refEvent{when, fn}
}

// runUntil fires, in order, every event due at or before t, including
// events the callbacks schedule within the horizon.
func (q *refQueue) runUntil(t vclock.Time) {
	for len(q.events) > 0 && q.events[0].when <= t {
		e := q.events[0]
		q.events = q.events[1:]
		e.fn(e.when)
	}
}

// refWay is one way of a set-associative structure with timestamp LRU,
// with the payload of the HPD table (count, send bit) and of the RPT
// cache (entry, dirty bit).
type refWay struct {
	tag   uint64
	valid bool
	stamp uint64

	count int
	sent  bool
	entry refRPTEntry
	dirty bool
}

// refSets is a set-associative structure: the set is the tag modulo the
// set count, a hit refreshes the way's stamp, and an install takes an
// empty way before evicting the least recently stamped one.
type refSets struct {
	sets  [][]refWay
	clock uint64
}

func newRefSets(sets, ways int) *refSets {
	s := &refSets{sets: make([][]refWay, sets)}
	for i := range s.sets {
		s.sets[i] = make([]refWay, ways)
	}
	return s
}

// find returns the way holding tag, refreshed, or nil.
func (s *refSets) find(tag uint64) *refWay {
	s.clock++
	set := s.sets[tag%uint64(len(s.sets))]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].stamp = s.clock
			return &set[i]
		}
	}
	return nil
}

// install puts tag, with an empty payload, in its set and returns the
// way it took and the entry it evicted.
func (s *refSets) install(tag uint64) (way *refWay, evicted refWay) {
	set := s.sets[tag%uint64(len(s.sets))]
	v := 0
	for i := range set {
		if !set[i].valid {
			v = i
			break
		}
		if set[i].stamp < set[v].stamp {
			v = i
		}
	}
	evicted = set[v]
	set[v] = refWay{tag: tag, valid: true, stamp: s.clock}
	return &set[v], evicted
}

// access is a cache lookup by line number: a hit, or a miss that
// installs the line.
func (s *refSets) access(line uint64) bool {
	if s.find(line) != nil {
		return true
	}
	s.install(line)
	return false
}

// drop invalidates tag wherever it sits.
func (s *refSets) drop(tag uint64) {
	set := s.sets[tag%uint64(len(s.sets))]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i] = refWay{}
		}
	}
}

// refRPTEntry is one reverse mapping, unpacked.
type refRPTEntry struct {
	pid    memsim.PID
	vpn    memsim.VPN
	shared bool
	valid  bool
}

// refHot is one record of the hot page area.
type refHot struct {
	time  vclock.Time
	entry refRPTEntry
}

// Machine is the reference machine. It implements core.Backend for
// HoPP's software and prefetch.RegionResolver for the VMA prefetcher.
type Machine struct {
	cfg    sim.Config
	costs  vmm.Costs
	fabric *rdma.Fabric
	remote map[memsim.PageKey]bool
	apps   []*refApp
	events refQueue
	met    sim.Metrics

	// The vmm: one page table for every process, the ever-swapped-out
	// set, the cgroups, and the frame allocator (a LIFO free list).
	pages     map[memsim.PageKey]*refPage
	swapped   map[memsim.PageKey]bool
	cgroups   map[memsim.PID]*refCgroup
	nextPPN   memsim.PPN
	freePPNs  []memsim.PPN
	insertSeq uint64

	// The caches, by physical line number: non-inclusive, a miss installs
	// the line at each level it missed.
	l2, llc *refSets

	// The memory controller, nil hpd unless the system is HoPP: the HPD
	// table's ways by PPN with their counts and send bits, the RPT in
	// DRAM, its write-back cache, and the hot page area.
	hpd         *refSets
	threshold   int
	rptDRAM     map[memsim.PPN]refRPTEntry
	rptCache    *refSets
	rptOps      uint64 // DRAM reads + writes
	rptLookups  uint64
	rptHits     uint64
	ring        []refHot
	ringCap     int
	readMisses  uint64
	writeMisses uint64
	hotEmitted  uint64

	pref      *core.Prefetcher
	faultPref prefetch.Prefetcher
	inflight  map[memsim.PageKey]*refFetch
}

// New builds the reference machine for cfg over gens, with the
// defaults sim.Config documents.
func New(cfg sim.Config, gens ...*workload.Base) *Machine {
	if cfg.Costs == (vmm.Costs{}) {
		cfg.Costs = vmm.DefaultCosts()
	}
	if cfg.L2Bytes == 0 {
		cfg.L2Bytes = 256 << 10
	}
	if cfg.LLCBytes == 0 {
		cfg.LLCBytes = 2 << 20
	}
	if cfg.MaxAccesses == 0 {
		cfg.MaxAccesses = 200_000_000
	}
	if cfg.Fabric.Seed == 0 {
		cfg.Fabric.Seed = cfg.Seed + 7777
	}
	r := &Machine{
		cfg:      cfg,
		costs:    cfg.Costs,
		fabric:   rdma.NewFabric(cfg.Fabric),
		remote:   map[memsim.PageKey]bool{},
		pages:    map[memsim.PageKey]*refPage{},
		swapped:  map[memsim.PageKey]bool{},
		cgroups:  map[memsim.PID]*refCgroup{},
		l2:       newRefSets(cfg.L2Bytes/memsim.LineSize/8, 8),
		llc:      newRefSets(cfg.LLCBytes/memsim.LineSize/16, 16),
		inflight: map[memsim.PageKey]*refFetch{},
	}
	for i, g := range gens {
		pid := memsim.PID(i + 1)
		limit := 0
		if cfg.LocalMemoryFrac > 0 {
			limit = int(math.Ceil(cfg.LocalMemoryFrac * float64(g.FootprintPages())))
		}
		r.cgroups[pid] = &refCgroup{limit: limit, active: list.New(), inactive: list.New()}
		g.Reset(cfg.Seed + int64(i)*101)
		r.apps = append(r.apps, &refApp{pid: pid, gen: g, regions: g.Regions()})
	}
	if cfg.System.HoPP {
		h, d := cfg.MC.HPD, hpd.Default()
		if h.Sets == 0 {
			h.Sets = d.Sets
		}
		if h.Ways == 0 {
			h.Ways = d.Ways
		}
		if h.Threshold == 0 {
			h.Threshold = d.Threshold
		}
		size, ways := cfg.MC.RPTCache.SizeBytes, cfg.MC.RPTCache.Ways
		if size == 0 {
			size = 64 << 10
		}
		if ways == 0 {
			ways = 16
		}
		r.ringCap = cfg.MC.BufferCap
		if r.ringCap <= 0 {
			r.ringCap = 1 << 16
		}
		r.hpd = newRefSets(h.Sets, h.Ways)
		r.threshold = h.Threshold
		r.rptDRAM = map[memsim.PPN]refRPTEntry{}
		r.rptCache = newRefSets(size/refRPTEntryBytes/ways, ways)
		r.pref = core.NewPrefetcher(cfg.System.HoPPParams, r)
	}
	if cfg.System.NewFault != nil {
		r.faultPref = cfg.System.NewFault(r)
	}
	r.met.System = cfg.System.Name
	r.met.PerApp = map[string]vclock.Duration{}
	return r
}

// Run plays every app to completion, one access per trip, always the app
// with the earliest clock (the first registered on a tie).
func (r *Machine) Run() (sim.Metrics, error) {
	for {
		var next *refApp
		for _, a := range r.apps {
			if !a.done && (next == nil || a.now < next.now) {
				next = a
			}
		}
		if next == nil {
			break
		}
		if err := r.step(next); err != nil {
			return r.met, err
		}
		if r.met.Accesses > r.cfg.MaxAccesses {
			return r.met, fmt.Errorf("sim: exceeded MaxAccesses=%d", r.cfg.MaxAccesses)
		}
	}
	r.events.runUntil(math.MaxInt64)
	var end vclock.Time
	for _, a := range r.apps {
		r.met.PerApp[a.gen.Name()] = vclock.Duration(a.finished)
		end = max(end, a.finished)
	}
	r.met.CompletionTime = vclock.Duration(end)
	if r.hpd != nil {
		missBytes := memsim.LineSize * (r.readMisses + r.writeMisses)
		r.met.HotPagesEmitted = r.hotEmitted
		if missBytes != 0 {
			r.met.HPDBandwidth = float64(refHotRecordBytes*r.hotEmitted) / float64(missBytes)
			r.met.RPTBandwidth = float64(refRPTEntryBytes*r.rptOps) / float64(missBytes)
		}
		if r.rptLookups != 0 {
			r.met.RPTCacheHitRate = float64(r.rptHits) / float64(r.rptLookups)
		}
		xs := r.pref.Exec.Stats()
		r.met.IssuedByTier = xs.IssuedByTier
		r.met.HitsByTier = xs.HitsByTier
		r.met.MeanLead = xs.MeanLead()
		r.met.LeadBuckets = xs.LeadBuckets
		r.met.CoreAccuracy = xs.Accuracy()
		r.met.HasCore = true
	}
	return r.met, nil
}

// step plays a's next access: think time, due events, then the page's
// state decides the path.
func (r *Machine) step(a *refApp) error {
	acc, ok := a.gen.Next()
	if !ok {
		a.done, a.finished = true, a.now
		return nil
	}
	r.met.Accesses++
	a.now = a.now.Add(acc.Think)
	r.events.runUntil(a.now)
	key := memsim.PageKey{PID: a.pid, VPN: acc.Addr.Page()}
	switch r.PageState(key) {
	case vmm.Mapped:
		p := r.pages[key]
		if p.injected {
			r.met.InjectedHits++
			if r.pref != nil {
				r.pref.Exec.OnFirstHit(key, a.now)
			}
			if r.faultPref != nil {
				r.faultPref.OnPrefetchHit(a.now, key)
			}
		}
		r.touch(p)
		r.memAccess(a, p.ppn, acc)
		return nil
	case vmm.SwapCached:
		r.met.SwapCacheHits++
		cost := r.costs.PrefetchHit()
		r.met.PrefetchStall += cost
		a.now = a.now.Add(cost)
		ppn := r.promote(key)
		if r.faultPref != nil {
			r.faultPref.OnPrefetchHit(a.now, key)
		}
		r.reclaim(key.PID, a.now)
		r.memAccess(a, ppn, acc)
		return nil
	case vmm.SwappedOut:
		return r.majorFault(a, key, acc)
	default:
		r.met.MinorFault++
		a.now = a.now.Add(r.costs.MinorFault)
		ppn := r.mapFresh(key, false)
		r.reclaim(key.PID, a.now)
		r.memAccess(a, ppn, acc)
		return nil
	}
}

// majorFault reads the page from the remote node, or waits for the
// prefetch already bringing it.
func (r *Machine) majorFault(a *refApp, key memsim.PageKey, acc workload.Access) error {
	if f := r.inflight[key]; f != nil {
		return r.lateHit(a, key, acc, f)
	}
	r.met.MajorFaults++
	if !r.remote[key] {
		return fmt.Errorf("sim: page %v swapped out but absent from remote node", key)
	}
	r.met.RemoteReads++
	arrival := r.fabric.PageRead(a.now)
	cost := r.costs.DemandFixed() + arrival.Sub(a.now)
	r.met.FaultStall += cost
	a.now = a.now.Add(cost)
	ppn := r.mapFresh(key, false)
	r.reclaim(key.PID, a.now)
	if r.faultPref != nil {
		inject := r.faultPref.Inject()
		for _, vpn := range r.faultPref.OnFault(a.now, key) {
			k := memsim.PageKey{PID: key.PID, VPN: vpn}
			if r.PageState(k) == vmm.SwappedOut && r.inflight[k] == nil && r.remote[k] {
				r.launch(a.now, k, inject, nil)
			}
		}
	}
	r.memAccess(a, ppn, acc)
	return nil
}

// lateHit waits for the in-flight prefetch f, then consumes its page.
func (r *Machine) lateHit(a *refApp, key memsim.PageKey, acc workload.Access, f *refFetch) error {
	cost := max(f.arrival.Sub(a.now), 0) + r.costs.PrefetchHit()
	a.now = a.now.Add(cost)
	r.events.runUntil(a.now)
	var ppn memsim.PPN
	switch r.PageState(key) {
	case vmm.SwapCached:
		ppn = r.promote(key)
		r.reclaim(key.PID, a.now)
	case vmm.Mapped:
		p := r.pages[key]
		r.touch(p)
		ppn = p.ppn
	default:
		// The landing was dropped or reclaimed on arrival: fetch on demand.
		r.met.PrefetchStall += cost
		return r.majorFault(a, key, acc)
	}
	r.met.LateHits++
	r.met.PrefetchStall += cost
	if r.pref != nil {
		r.pref.Exec.NoteLateHit(key, a.now)
	}
	if r.faultPref != nil {
		r.faultPref.OnPrefetchHit(a.now, key)
	}
	r.memAccess(a, ppn, acc)
	return nil
}

// memAccess plays one line of a mapped page through L2, the LLC and, on
// an LLC miss, DRAM and the memory controller; hot pages drain at once.
func (r *Machine) memAccess(a *refApp, ppn memsim.PPN, acc workload.Access) {
	line := ppn.LineAddr(acc.Addr.LineInPage()).Line()
	if r.l2.access(line) || r.llc.access(line) {
		r.met.CacheHits++
		a.now = a.now.Add(r.costs.CacheHit)
		return
	}
	r.met.DRAMHits++
	a.now = a.now.Add(r.costs.DRAMHit)
	if r.hpd == nil {
		return
	}
	if acc.Write {
		r.writeMisses++
	} else {
		r.readMisses++
	}
	if r.hpdAccess(ppn) {
		r.hotEmitted++
		if len(r.ring) == r.ringCap {
			r.ring = r.ring[1:] // the oldest record is overwritten
		}
		r.ring = append(r.ring, refHot{a.now, r.rptLookup(ppn)})
	}
	drained := r.ring
	r.ring = nil
	for _, h := range drained {
		if h.entry.valid {
			r.pref.OnHotPage(h.time, h.entry.pid, h.entry.vpn, h.entry.shared)
		}
	}
}

// hpdAccess counts one LLC miss to ppn (§III-B): a page is hot at its
// threshold-th miss while its entry lives, and its send bit then drops
// further misses until the entry is evicted. Entries are keyed by frame
// and survive the frame's reuse by another page.
func (r *Machine) hpdAccess(ppn memsim.PPN) bool {
	w := r.hpd.find(uint64(ppn))
	if w == nil {
		w, _ = r.hpd.install(uint64(ppn))
	}
	if w.sent {
		return false
	}
	w.count++
	w.sent = w.count >= r.threshold
	return w.sent
}

// rptLookup translates a hot frame through the RPT cache (Fig. 6): a miss
// reads the entry from DRAM and may write a dirty victim back.
func (r *Machine) rptLookup(ppn memsim.PPN) refRPTEntry {
	r.rptLookups++
	if w := r.rptCache.find(uint64(ppn)); w != nil {
		r.rptHits++
		return w.entry
	}
	r.rptOps++
	e := r.rptDRAM[ppn]
	r.rptFill(ppn, e, false)
	return e
}

// rptUpdate is the set_pte_at / pte_clear hook: the cache absorbs the
// write, and DRAM sees it when the line is evicted.
func (r *Machine) rptUpdate(ppn memsim.PPN, e refRPTEntry) {
	if w := r.rptCache.find(uint64(ppn)); w != nil {
		w.entry, w.dirty = e, true
		return
	}
	r.rptFill(ppn, e, true)
}

// rptFill installs ppn's entry in the RPT cache, writing a dirty victim
// back to DRAM.
func (r *Machine) rptFill(ppn memsim.PPN, e refRPTEntry, dirty bool) {
	w, old := r.rptCache.install(uint64(ppn))
	if old.valid && old.dirty {
		r.rptOps++
		r.rptDRAM[memsim.PPN(old.tag)] = old.entry
	}
	w.entry, w.dirty = e, dirty
}

// setPTE maps key at ppn in the RPT, with its region's shared flag.
func (r *Machine) setPTE(ppn memsim.PPN, key memsim.PageKey) {
	if r.hpd == nil {
		return
	}
	shared := false
	for _, reg := range r.apps[key.PID-1].regions {
		if reg.Contains(key.VPN) {
			shared = reg.Shared
			break
		}
	}
	r.rptUpdate(ppn, refRPTEntry{pid: key.PID, vpn: key.VPN, shared: shared, valid: true})
}

// allocPPN takes the most recently freed frame, or a new one.
func (r *Machine) allocPPN() memsim.PPN {
	if n := len(r.freePPNs); n > 0 {
		p := r.freePPNs[n-1]
		r.freePPNs = r.freePPNs[:n-1]
		return p
	}
	r.nextPPN++
	return r.nextPPN
}

// mapFresh maps key in a new frame, charged, at the head of the active
// list: a first touch, a demand fetch, or an injected prefetch.
func (r *Machine) mapFresh(key memsim.PageKey, injected bool) memsim.PPN {
	g := r.cgroups[key.PID]
	p := &refPage{key: key, ppn: r.allocPPN(), state: vmm.Mapped, injected: injected, prefetched: injected, charged: true}
	p.elem = g.active.PushFront(p)
	g.charged++
	r.pages[key] = p
	r.setPTE(p.ppn, key)
	return p.ppn
}

// insertSwapCache lands a prefetched page unmapped, charged only when
// the system charges prefetches.
func (r *Machine) insertSwapCache(key memsim.PageKey) {
	g := r.cgroups[key.PID]
	r.insertSeq++
	p := &refPage{key: key, ppn: r.allocPPN(), state: vmm.SwapCached, prefetched: true,
		charged: r.cfg.System.ChargePrefetched, seq: r.insertSeq}
	p.elem = g.inactive.PushFront(p)
	if p.charged {
		g.charged++
	}
	r.pages[key] = p
}

// promote maps a swapcached page, charging it if it was not.
func (r *Machine) promote(key memsim.PageKey) memsim.PPN {
	g, p := r.cgroups[key.PID], r.pages[key]
	g.inactive.Remove(p.elem)
	p.state = vmm.Mapped
	if !p.charged {
		p.charged = true
		g.charged++
	}
	p.elem = g.active.PushFront(p)
	r.setPTE(p.ppn, key)
	return p.ppn
}

// touch is an access to a mapped page: it consumes the injected flag and
// moves the page to the head of the active list.
func (r *Machine) touch(p *refPage) {
	p.injected = false
	r.cgroups[p.key.PID].active.MoveToFront(p.elem)
}

// reclaim brings pid's cgroup back under its limit and writes the victims
// to the remote node, stamped now.
func (r *Machine) reclaim(pid memsim.PID, now vclock.Time) {
	g := r.cgroups[pid]
	var victims []*refPage
	for g.inactive.Len() > refSwapCacheCap {
		tail := g.inactive.Back().Value.(*refPage)
		if tail.charged {
			break
		}
		victims = append(victims, r.evict(g, tail))
	}
	for g.limit > 0 && g.charged > g.limit {
		var p *refPage
		switch tail := g.inactive.Back(); {
		case tail != nil && tail.Value.(*refPage).charged && r.insertSeq-tail.Value.(*refPage).seq > refInactiveProtect:
			p = tail.Value.(*refPage)
		case g.active.Len() > 0:
			p = g.active.Back().Value.(*refPage)
		case tail != nil:
			p = tail.Value.(*refPage)
		}
		if p == nil {
			break
		}
		victims = append(victims, r.evict(g, p))
	}
	for _, v := range victims {
		swapCached := v.state == vmm.SwapCached
		r.remote[v.key] = true
		r.met.RemoteWrites++
		r.fabric.PageWrite(now)
		for i := range memsim.LinesPerPage {
			line := v.ppn.LineAddr(i).Line()
			r.l2.drop(line)
			r.llc.drop(line)
		}
		if v.injected || swapCached {
			r.met.PrefetchEvicted++
		}
		if v.injected && r.pref != nil {
			r.pref.Exec.OnEvicted(v.key)
		}
		if v.prefetched && r.faultPref != nil {
			r.faultPref.OnPrefetchEvicted(now, v.key, !v.injected && !swapCached)
		}
	}
}

// evict removes p, clearing its PTE (and RPT entry) when mapped; the page
// is swapped out from then on and its frame is free. p keeps the flags
// the reclaim loop reports.
func (r *Machine) evict(g *refCgroup, p *refPage) *refPage {
	if p.state == vmm.Mapped {
		g.active.Remove(p.elem)
		if r.hpd != nil {
			r.rptUpdate(p.ppn, refRPTEntry{})
		}
	} else {
		g.inactive.Remove(p.elem)
	}
	if p.charged {
		g.charged--
	}
	delete(r.pages, p.key)
	r.swapped[p.key] = true
	r.freePPNs = append(r.freePPNs, p.ppn)
	return p
}

// launch issues one prefetch read at now and schedules its landing.
func (r *Machine) launch(now vclock.Time, k memsim.PageKey, inject bool, onInjected func(memsim.PageKey, vclock.Time)) {
	r.met.RemoteReads++
	r.met.PrefetchIssued++
	f := &refFetch{key: k, arrival: r.fabric.PageRead(now), inject: inject, onInjected: onInjected}
	r.inflight[k] = f
	r.events.schedule(f.arrival, func(t vclock.Time) { r.land(f, t) })
}

// land puts an arrived prefetch in place — mapped and injected, or in the
// swapcache — unless the page is no longer swapped out, then reclaims.
func (r *Machine) land(f *refFetch, t vclock.Time) {
	delete(r.inflight, f.key)
	if r.PageState(f.key) != vmm.SwappedOut {
		return
	}
	if f.inject {
		r.mapFresh(f.key, true)
		if f.onInjected != nil {
			f.onInjected(f.key, t)
		}
	} else {
		r.insertSwapCache(f.key)
	}
	r.reclaim(f.key.PID, t)
}

// PageState implements core.Backend.
func (r *Machine) PageState(key memsim.PageKey) vmm.PageState {
	if p := r.pages[key]; p != nil {
		return p.state
	}
	if r.swapped[key] {
		return vmm.SwappedOut
	}
	return vmm.Untouched
}

// Fetch implements core.Backend: one page read after HoPP's software
// delay, injected on arrival.
func (r *Machine) Fetch(now vclock.Time, key memsim.PageKey, onInjected func(memsim.PageKey, vclock.Time)) bool {
	if r.inflight[key] != nil || !r.remote[key] {
		return false
	}
	r.launch(now.Add(refSoftwareDelay), key, true, onInjected)
	return true
}

// InjectSwapCached implements core.Backend: map a swapcached page with
// the injected flag.
func (r *Machine) InjectSwapCached(now vclock.Time, key memsim.PageKey) bool {
	p := r.pages[key]
	if p == nil || p.state != vmm.SwapCached {
		return false
	}
	r.promote(key)
	p.injected = true
	r.reclaim(key.PID, now)
	return true
}

// FetchBulk implements core.Backend: §IV's huge-space swap moves every
// page in one transfer, and each lands injected at its arrival.
func (r *Machine) FetchBulk(now vclock.Time, keys []memsim.PageKey, onInjected func(memsim.PageKey, vclock.Time)) bool {
	if len(keys) == 0 {
		return false
	}
	for _, k := range keys {
		if r.inflight[k] != nil || !r.remote[k] {
			return false
		}
	}
	arrival := r.fabric.Transfer(now.Add(refSoftwareDelay), len(keys)*memsim.PageSize)
	r.met.BulkRequests++
	fs := make([]*refFetch, len(keys))
	for i, k := range keys {
		r.met.RemoteReads++
		r.met.PrefetchIssued++
		fs[i] = &refFetch{key: k, arrival: arrival, inject: true}
		r.inflight[k] = fs[i]
	}
	r.events.schedule(arrival, func(t vclock.Time) {
		for _, f := range fs {
			r.land(f, t)
			onInjected(f.key, t)
		}
	})
	return true
}

// Region implements prefetch.RegionResolver.
func (r *Machine) Region(key memsim.PageKey) (memsim.VPN, memsim.VPN, bool) {
	if key.PID < 1 || int(key.PID) > len(r.apps) {
		return 0, 0, false
	}
	for _, reg := range r.apps[key.PID-1].regions {
		if reg.Contains(key.VPN) {
			return reg.Start, reg.End(), true
		}
	}
	return 0, 0, false
}

// Probe schedules an event at when on r's event queue; fire receives the
// machine's access count at the moment the event fires.
func (r *Machine) Probe(when vclock.Time, fire func(accesses uint64)) {
	r.events.schedule(when, func(vclock.Time) { fire(r.met.Accesses) })
}

// Run runs gens on the reference machine.
func Run(cfg sim.Config, gens ...*workload.Base) (sim.Metrics, error) {
	return New(cfg, gens...).Run()
}

package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"hopp/internal/cachesim"
	"hopp/internal/core"
	"hopp/internal/flatmap"
	"hopp/internal/mc"
	"hopp/internal/memsim"
	"hopp/internal/prefetch"
	"hopp/internal/rdma"
	"hopp/internal/vclock"
	"hopp/internal/vmm"
	"hopp/internal/workload"
)

// Config parameterizes a Machine.
type Config struct {
	// System is the remote-memory system under test.
	System System
	// Costs is the kernel cost model; zero value takes DefaultCosts.
	Costs vmm.Costs
	// Fabric configures the RDMA link.
	Fabric rdma.Config
	// MC configures the memory controller hardware (HoPP systems).
	MC mc.Config
	// L2Bytes/LLCBytes size the cache hierarchy. Defaults 256 KB / 2 MB —
	// scaled with the workload footprints so streaming behaviour matches
	// the paper's GB-footprints-vs-35MB-LLC regime. The L2 is 8-way and
	// the LLC 16-way, and each needs at least memsim.LinesPerPage sets
	// (32 KB of L2, 64 KB of LLC); New rejects smaller levels.
	L2Bytes  int
	LLCBytes int
	// LocalMemoryFrac limits each app's cgroup to this fraction of its
	// footprint (the paper's 50%/25% configurations). 0 = unlimited
	// (the local baseline run). New rejects a value outside [0, 1).
	LocalMemoryFrac float64
	// Seed drives workload randomness and fabric jitter.
	Seed int64
	// MaxAccesses aborts runaway runs. Default 200M.
	MaxAccesses uint64
}

func (c *Config) fill() {
	if c.Costs == (vmm.Costs{}) {
		c.Costs = vmm.DefaultCosts()
	}
	if c.L2Bytes == 0 {
		c.L2Bytes = 256 << 10
	}
	if c.LLCBytes == 0 {
		c.LLCBytes = 2 << 20
	}
	if c.MaxAccesses == 0 {
		c.MaxAccesses = 200_000_000
	}
	if c.Fabric.Seed == 0 {
		c.Fabric.Seed = c.Seed + 7777
	}
}

type appState struct {
	pid memsim.PID
	// base is the app's page-program player, held by its concrete type so
	// step and runVisit call it without interface dispatch.
	base     *workload.Base
	regions  []workload.Region
	now      vclock.Time
	done     bool
	finished vclock.Time
}

// inflightFetch tracks one outstanding prefetch read. Structs are
// pooled on Machine.infFree: each carries a landing closure built once
// at allocation (closing over the struct itself), so launching a
// prefetch in steady state allocates neither the struct nor a fresh
// callback.
type inflightFetch struct {
	key     memsim.PageKey
	arrival vclock.Time
	inject  bool
	// onInjected is HoPP's execution-engine callback (nil for demand-path
	// prefetchers).
	onInjected func(memsim.PageKey, vclock.Time)
	// land is the prebuilt landing-event callback; it reads key from the
	// struct, so it stays valid across pool reuses.
	land func(vclock.Time)
	// next links the freelist.
	next *inflightFetch
}

// Machine is one simulated compute node plus its remote memory node.
type Machine struct {
	cfg    Config
	costs  vmm.Costs
	vm     *vmm.VMM
	fabric *rdma.Fabric
	remote *rdma.Node
	caches cachesim.Hierarchy

	mcCtl     *mc.Controller      // nil unless System.HoPP
	pref      *core.Prefetcher    // nil unless System.HoPP
	faultPref prefetch.Prefetcher // nil for NoPrefetch

	queue vclock.EventQueue
	apps  []*appState
	// inflight holds the outstanding prefetch reads by packed page key.
	inflight *flatmap.Map[*inflightFetch]

	// regionsByPID indexes each app's workload regions by PID (PIDs are
	// 1..n), so region queries skip the app scan.
	regionsByPID [][]workload.Region
	// active is RunContext's scratch list of not-yet-finished apps.
	active []*appState
	// hotBuf and victimBuf are reused drain buffers for the per-access
	// hot loop (see DESIGN.md "Hot-path invariants").
	hotBuf    []mc.HotPage
	victimBuf []vmm.Victim
	// infFree heads the inflightFetch freelist.
	infFree *inflightFetch

	met Metrics
}

// newInflight pops the freelist (or allocates); the caller sets every
// field except land and next.
func (m *Machine) newInflight() *inflightFetch {
	inf := m.infFree
	if inf != nil {
		m.infFree = inf.next
		inf.next = nil
		return inf
	}
	inf = &inflightFetch{}
	inf.land = func(t vclock.Time) { m.landPrefetch(inf.key, inf, t) }
	return inf
}

// freeInflight recycles a landed fetch. The landing event has already
// fired (or will never fire), so the struct cannot be reached from the
// event queue.
func (m *Machine) freeInflight(inf *inflightFetch) {
	inf.onInjected = nil
	inf.next = m.infFree
	m.infFree = inf
}

// New builds a machine running the given workloads (one process each,
// PIDs 1..n) under cfg.System. The machine plays page programs, so New
// returns an error naming any app that is not a *workload.Base.
func New(cfg Config, gens ...workload.Generator) (*Machine, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("sim: no workloads")
	}
	// Negated so that NaN, which fails every comparison, fails too.
	if !(cfg.LocalMemoryFrac >= 0 && cfg.LocalMemoryFrac < 1) {
		return nil, fmt.Errorf("sim: LocalMemoryFrac %g outside [0, 1)", cfg.LocalMemoryFrac)
	}
	cfg.fill()
	l2 := cachesim.Config{Name: "L2", SizeBytes: cfg.L2Bytes, Ways: 8}
	llc := cachesim.Config{Name: "LLC", SizeBytes: cfg.LLCBytes, Ways: 16}
	for _, c := range []cachesim.Config{l2, llc} {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %s: %w", c.Name, err)
		}
	}
	if cfg.System.HoPP {
		if err := cfg.System.HoPPParams.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %s: %w", cfg.System.Name, err)
		}
	}
	m := &Machine{
		cfg:      cfg,
		costs:    cfg.Costs,
		fabric:   rdma.NewFabric(cfg.Fabric),
		remote:   rdma.NewNode(0),
		caches:   cachesim.NewHierarchy(cachesim.New(l2), cachesim.New(llc)),
		inflight: flatmap.New[*inflightFetch](64),
	}
	// runVisit plays a visit as one line mask per level, which needs a
	// page's lines in distinct sets.
	for _, c := range []*cachesim.Cache{m.caches.L2, m.caches.LLC} {
		if c.Sets() < memsim.LinesPerPage {
			return nil, fmt.Errorf("sim: %s has %d sets, fewer than the %d a page's lines need", c.Name(), c.Sets(), memsim.LinesPerPage)
		}
	}
	m.vm = vmm.New(vmm.Config{ChargePrefetched: cfg.System.ChargePrefetched})
	m.regionsByPID = make([][]workload.Region, len(gens)+1)
	for i, gen := range gens {
		g, ok := gen.(*workload.Base)
		if !ok {
			return nil, fmt.Errorf("sim: app %d (%s) is a %T, not a *workload.Base", i+1, gen.Name(), gen)
		}
		pid := memsim.PID(i + 1)
		limit := 0
		if cfg.LocalMemoryFrac > 0 {
			limit = int(math.Ceil(cfg.LocalMemoryFrac * float64(g.FootprintPages())))
		}
		if _, err := m.vm.Register(pid, limit); err != nil {
			return nil, err
		}
		g.Reset(cfg.Seed + int64(i)*101)
		regions := g.Regions()
		for _, r := range regions {
			m.vm.Presize(pid, r.Start, r.End())
		}
		m.regionsByPID[pid] = regions
		m.apps = append(m.apps, &appState{pid: pid, base: g, regions: regions})
	}
	if cfg.System.HoPP {
		ctl, err := mc.New(cfg.MC)
		if err != nil {
			return nil, err
		}
		m.mcCtl = ctl
		m.vm.OnSetPTE = func(ppn memsim.PPN, pid memsim.PID, vpn memsim.VPN) {
			ctl.SetMapping(ppn, pid, vpn, m.sharedRegion(memsim.PageKey{PID: pid, VPN: vpn}), 0)
		}
		m.vm.OnClearPTE = ctl.ClearMapping
		m.pref = core.NewPrefetcher(cfg.System.HoPPParams, (*hoppBackend)(m))
	}
	if cfg.System.NewFault != nil {
		m.faultPref = cfg.System.NewFault(m)
	}
	m.met.System = cfg.System.Name
	m.met.PerApp = make(map[string]vclock.Duration)
	return m, nil
}

// sharedRegion reports whether the page lies in a region its workload
// declared shared.
func (m *Machine) sharedRegion(key memsim.PageKey) bool {
	if int(key.PID) >= len(m.regionsByPID) {
		return false
	}
	for _, r := range m.regionsByPID[key.PID] {
		if r.Contains(key.VPN) {
			return r.Shared
		}
	}
	return false
}

// Region implements prefetch.RegionResolver for the VMA prefetcher.
func (m *Machine) Region(key memsim.PageKey) (memsim.VPN, memsim.VPN, bool) {
	if int(key.PID) >= len(m.regionsByPID) {
		return 0, 0, false
	}
	for _, r := range m.regionsByPID[key.PID] {
		if r.Contains(key.VPN) {
			return r.Start, r.End(), true
		}
	}
	return 0, 0, false
}

// Run executes every workload to completion and returns the metrics.
func (m *Machine) Run() (Metrics, error) {
	return m.RunContext(context.Background())
}

// ctxCheckInterval is how many simulated accesses pass between
// cancellation polls: frequent enough that a run aborts within
// microseconds of wall time, rare enough to keep the select off the
// hot path.
const ctxCheckInterval = 4096

// RunContext is Run with cancellation: each time the simulated access
// count crosses a multiple of ctxCheckInterval the machine polls ctx
// and, if it is done, abandons the run and returns ctx.Err() alongside
// the metrics accumulated so far. Cancellation does not corrupt the
// machine, but an abandoned run's metrics are partial and must not be
// compared against completed ones.
func (m *Machine) RunContext(ctx context.Context) (Metrics, error) {
	cancellable := ctx.Done() != nil
	// active holds the not-yet-finished apps in registration order, so
	// next-app selection scans live apps only — and the dominant 1- and
	// 2-app configurations skip the scan entirely. Ties break toward the
	// earliest-registered app, exactly as the old all-apps scan did
	// (strictly-Before comparisons against the earlier candidate).
	active := m.active[:0]
	for _, a := range m.apps {
		if !a.done {
			active = append(active, a)
		}
	}
	m.active = active
	// Poll before the first access, then on the first trip at or past
	// each multiple of ctxCheckInterval. The poll counts accesses, not
	// trips: one trip can play up to a page visit's worth of them.
	nextPoll := m.met.Accesses
	for len(active) > 0 {
		if cancellable && m.met.Accesses >= nextPoll {
			nextPoll = m.met.Accesses - m.met.Accesses%ctxCheckInterval + ctxCheckInterval
			select {
			case <-ctx.Done():
				return m.met, ctx.Err()
			default:
			}
		}
		var next *appState
		switch len(active) {
		case 1:
			next = active[0]
		case 2:
			next = active[0]
			if active[1].now.Before(next.now) {
				next = active[1]
			}
		default:
			next = active[0]
			for _, a := range active[1:] {
				if a.now.Before(next.now) {
					next = a
				}
			}
		}
		if err := m.step(next); err != nil {
			return m.met, err
		}
		if next.done {
			for i, a := range active {
				if a == next {
					active = append(active[:i], active[i+1:]...)
					break
				}
			}
			m.active = active
		}
		if m.met.Accesses > m.cfg.MaxAccesses {
			return m.met, fmt.Errorf("sim: exceeded MaxAccesses=%d", m.cfg.MaxAccesses)
		}
	}
	// Land any still-in-flight prefetches so accounting is complete.
	m.queue.RunUntil(vclock.Time(math.MaxInt64))
	m.finalize()
	return m.met, nil
}

func (m *Machine) finalize() {
	var maxT vclock.Time
	for _, a := range m.apps {
		m.met.PerApp[a.base.Name()] = vclock.Duration(a.finished)
		if a.finished.After(maxT) {
			maxT = a.finished
		}
	}
	m.met.CompletionTime = vclock.Duration(maxT)
	if m.mcCtl != nil {
		s := m.mcCtl.Stats()
		m.met.HotPagesEmitted = s.HotEmitted
		m.met.HPDBandwidth = s.HPDBandwidthRatio()
		m.met.RPTBandwidth = s.RPTBandwidthRatio()
		m.met.RPTCacheHitRate = m.mcCtl.RPTCacheStats().HitRate()
	}
	if m.pref != nil {
		xs := m.pref.Exec.Stats()
		m.met.IssuedByTier = xs.IssuedByTier
		m.met.HitsByTier = xs.HitsByTier
		m.met.MeanLead = xs.MeanLead()
		m.met.LeadBuckets = xs.LeadBuckets
		m.met.CoreAccuracy = xs.Accuracy()
		m.met.HasCore = true
	}
}

func (m *Machine) step(a *appState) error {
	acc, ok := a.base.Next()
	if !ok {
		a.done = true
		a.finished = a.now
		return nil
	}
	m.met.Accesses++
	a.now = a.now.Add(acc.Think)
	// Peek before calling RunUntil: while a prefetch is in flight the
	// queue is non-empty for thousands of accesses, but its event is due
	// on almost none of them, and the inlined peek is much cheaper than
	// the call.
	if t, ok := m.queue.PeekTime(); ok && !t.After(a.now) {
		m.queue.RunUntil(a.now)
	}

	key := memsim.PageKey{PID: a.pid, VPN: acc.Addr.Page()}
	// Access fuses classification with the mapped-page Touch (LRU
	// refresh, injected-flag consumption) in one page-table walk.
	state, ppn, injected := m.vm.Access(key)
	switch state {
	case vmm.Mapped:
		if injected {
			m.met.InjectedHits++
			if m.pref != nil {
				m.pref.Exec.OnFirstHit(key, a.now)
			}
			if m.faultPref != nil {
				m.faultPref.OnPrefetchHit(a.now, key)
			}
		}
		m.runVisit(a, ppn, acc.Addr.LineInPage(), acc.Write)
		return nil
	case vmm.SwapCached:
		return m.swapCacheHit(a, key, acc)
	case vmm.SwappedOut:
		return m.majorFault(a, key, acc)
	default: // Untouched
		return m.minorFault(a, key, acc)
	}
}

// runVisit plays the line of a's current page visit that step opened in
// the mapped page ppn, then as much of the visit's rest as runs before
// the batch must end. It skips the per-access work that is a no-op
// mid-visit: Next (one Skip consumes the cursor), the event-queue peek,
// RunContext's app pick and vmm.Access — nothing in a batch touches the
// vmm, so the page keeps its state, its place at the head of the active
// list and its consumed injected flag. The batch ends before a line
// when a vclock event falls due by that line's clock, when another app
// would run next, or when Accesses has passed MaxAccesses; and after the
// DRAM line that turns the page hot, since OnHotPage can inject or
// reclaim.
//
// The caches see the batch as one line mask per level. Each level has
// at least memsim.LinesPerPage sets (New checks), so the page's lines
// fall in distinct sets and no line's install evicts another of the
// batch; and nothing in a batch invalidates lines. Every line's hit or
// miss is therefore the one the page's residency records show at the
// batch start, and the lines commute: the batch charges each line from
// those records, and the levels play the whole mask once at the end,
// before any drain.
//
// The memory controller sees the batch's DRAM lines as one run,
// ObserveRun at the last line's clock. Only the ToHot-th DRAM line can
// turn the page hot, and only its clock is observed (it stamps the hot
// record), so the batch ends there. A batch with fewer DRAM lines than
// ToHot, or with ToHot 0 (no controller, or the page's record already
// sent), observes no clock: when the stop rule lets every line play,
// it is one sum. Clock, counters, controller state and final cache
// state are those of playing the lines one access per step, as the
// reference machine of the package's tests does, so Metrics are
// identical.
func (m *Machine) runVisit(a *appState, ppn memsim.PPN, line int, write bool) {
	_, n := a.base.Rest()
	if len(m.active) > 2 || m.met.Accesses > m.cfg.MaxAccesses {
		n = 0
	} else if left := m.cfg.MaxAccesses - m.met.Accesses + 1; uint64(n) > left {
		n = int(left)
	}
	think := a.base.Think()
	// Each later line runs while a.now < stop. The event bound is read
	// once: nothing inside a batch schedules events. Before a line's
	// clock advance, an event due at or before a.now+think would fire.
	stop := vclock.Time(math.MaxInt64)
	if t, ok := m.queue.PeekTime(); ok {
		stop = t.Add(-think)
	}
	// RunContext picks active[0] unless active[1] is strictly earlier.
	if len(m.active) == 2 {
		peer := m.active[0].now
		if a == m.active[0] {
			peer = m.active[1].now.Add(1)
		}
		if peer.Before(stop) {
			stop = peer
		}
	}
	l2, llc := m.caches.L2.Page(ppn), m.caches.LLC.Page(ppn)
	resident := l2.Resident() | llc.Resident()
	ctl, now, hitCost, dramCost := m.mcCtl, a.now, m.costs.CacheHit, m.costs.DRAMHit
	toHot := 0
	if ctl != nil {
		toHot = ctl.ToHot(ppn)
	}
	var lines uint64
	rest := 0
	// A batch whose DRAM lines cannot turn the page hot is a sum when
	// the stop rule lets every line play: nothing then observes a
	// line's clock. The clock grows with each line, so every line plays
	// if the last one does: if the clock before its think time is below
	// stop.
	all := bits.RotateLeft64(uint64(1)<<(n+1)-1, line)
	hits := bits.OnesCount64(all & resident)
	dram := n + 1 - hits
	if toHot == 0 || dram < toHot {
		end := now.Add(vclock.Duration(hits)*hitCost + vclock.Duration(dram)*dramCost + vclock.Duration(n)*think)
		last := dramCost
		if resident>>((line+n)&(memsim.LinesPerPage-1))&1 != 0 {
			last = hitCost
		}
		if n == 0 || end.Add(-last-think).Before(stop) {
			lines, now, rest = all, end, n
		}
	}
	// Otherwise the batch runs line by line, keeping the clock in a local
	// and counting lines by mask. It ends at the DRAM line that turns the
	// page hot (left reaches 0), so the hot record carries that line's
	// clock; with toHot 0, left never reaches 0.
	if lines == 0 {
		left := toHot
		for {
			bit := uint64(1) << line
			lines |= bit
			if resident&bit != 0 {
				now = now.Add(hitCost)
			} else {
				now = now.Add(dramCost)
				if left--; left == 0 {
					break
				}
			}
			if rest == n || !now.Before(stop) {
				break
			}
			now = now.Add(think)
			rest++
			line = (line + 1) & (memsim.LinesPerPage - 1)
		}
	}
	a.now = now
	m.met.Accesses += uint64(rest)
	hits = bits.OnesCount64(lines & resident)
	dram = bits.OnesCount64(lines) - hits
	m.met.CacheHits += uint64(hits)
	m.met.DRAMHits += uint64(dram)
	m.caches.LLC.AccessLines(llc, ppn, m.caches.L2.AccessLines(l2, ppn, lines))
	if rest > 0 {
		a.base.Skip(rest)
	}
	if ctl != nil && dram != 0 {
		ctl.ObserveRun(now, ppn, dram, write)
		if ctl.Pending() != 0 {
			m.drainHotPages()
		}
	}
}

// memAccess models the hardware path of the access acc to the mapped
// page ppn, one line on its own: cache hierarchy, DRAM on LLC miss,
// and — on HoPP machines — the memory controller's hot page pipeline.
// The drain is gated on Pending so the common no-hot-page miss costs
// one counter check. The fault, swapcache and late-hit paths play their
// faulting line here and leave the rest of the visit to later steps: a
// batch started there could keep playing lines on a frame the fault's
// own reclaim has just freed (evictOne takes the active tail, which is
// the new page when it is the only active one), where the next step
// faults again instead.
func (m *Machine) memAccess(a *appState, ppn memsim.PPN, acc workload.Access) {
	pa := ppn.LineAddr(acc.Addr.LineInPage())
	if m.caches.Access(pa) != cachesim.LevelMemory {
		m.met.CacheHits++
		a.now = a.now.Add(m.costs.CacheHit)
		return
	}
	m.met.DRAMHits++
	a.now = a.now.Add(m.costs.DRAMHit)
	if ctl := m.mcCtl; ctl != nil {
		ctl.ObserveMiss(a.now, pa, acc.Write)
		if ctl.Pending() != 0 {
			m.drainHotPages()
		}
	}
}

func (m *Machine) drainHotPages() {
	// hotBuf is reused across drains; OnHotPage never re-enters the
	// drain (prefetch issue paths do not touch the MC), so iterating the
	// shared buffer is safe.
	m.hotBuf = m.mcCtl.DrainInto(m.hotBuf[:0], 0)
	for i := range m.hotBuf {
		hp := &m.hotBuf[i]
		if !hp.Mapped {
			continue // kernel or unmapped page; software drops it
		}
		m.pref.OnHotPage(hp.Time, hp.PID, hp.VPN, hp.Shared)
	}
}

func (m *Machine) swapCacheHit(a *appState, key memsim.PageKey, acc workload.Access) error {
	m.met.SwapCacheHits++
	cost := m.costs.PrefetchHit()
	m.met.PrefetchStall += cost
	a.now = a.now.Add(cost)
	ppn, err := m.vm.PromoteSwapCache(key)
	if err != nil {
		return err
	}
	// Only prefetches land in the swapcache, so this hit is the page's
	// first touch — report it to the feedback seam.
	if m.faultPref != nil {
		m.faultPref.OnPrefetchHit(a.now, key)
	}
	m.reclaim(key.PID, a.now)
	m.memAccess(a, ppn, acc)
	return nil
}

func (m *Machine) majorFault(a *appState, key memsim.PageKey, acc workload.Access) error {
	if inf, ok := m.inflight.Get(key.Pack()); ok {
		return m.lateHit(a, key, acc, inf)
	}
	m.met.MajorFaults++
	if !m.remote.Has(key) {
		return fmt.Errorf("sim: page %v swapped out but absent from remote node", key)
	}
	m.met.RemoteReads++
	arrival := m.fabric.PageRead(a.now)
	cost := m.costs.DemandFixed() + arrival.Sub(a.now)
	m.met.FaultStall += cost
	a.now = a.now.Add(cost)
	ppn, err := m.vm.MapRemote(key, false)
	if err != nil {
		return err
	}
	m.reclaim(key.PID, a.now)
	m.firePrefetcher(a, key)
	m.memAccess(a, ppn, acc)
	return nil
}

// lateHit is a demand fault absorbed by an in-flight prefetch: the
// fault waits for the outstanding read instead of issuing its own.
func (m *Machine) lateHit(a *appState, key memsim.PageKey, acc workload.Access, inf *inflightFetch) error {
	wait := vclock.Duration(0)
	if inf.arrival.After(a.now) {
		wait = inf.arrival.Sub(a.now)
	}
	cost := wait + m.costs.PrefetchHit()
	a.now = a.now.Add(cost)
	m.queue.RunUntil(a.now) // fires the landing event
	var ppn memsim.PPN
	var err error
	switch m.vm.Lookup(key) {
	case vmm.SwapCached:
		ppn, err = m.vm.PromoteSwapCache(key)
		m.reclaim(key.PID, a.now)
	case vmm.Mapped:
		ppn, err = m.vm.Touch(key)
	default:
		// The landing was dropped or the page was reclaimed the instant
		// it arrived (thrashing); fall back to a plain demand fetch.
		m.met.PrefetchStall += cost
		return m.majorFault(a, key, acc)
	}
	if err != nil {
		return err
	}
	m.met.LateHits++
	m.met.PrefetchStall += cost
	if m.pref != nil {
		m.pref.Exec.NoteLateHit(key, a.now)
	}
	// A late hit still consumed the prefetch: first touch of a
	// prefetched page, whichever state the landing left it in.
	if m.faultPref != nil {
		m.faultPref.OnPrefetchHit(a.now, key)
	}
	m.memAccess(a, ppn, acc)
	return nil
}

func (m *Machine) minorFault(a *appState, key memsim.PageKey, acc workload.Access) error {
	m.met.MinorFault++
	a.now = a.now.Add(m.costs.MinorFault)
	ppn, err := m.vm.MapNew(key)
	if err != nil {
		return err
	}
	m.reclaim(key.PID, a.now)
	m.memAccess(a, ppn, acc)
	return nil
}

// firePrefetcher runs the demand-path prefetch policy after a major
// fault and launches the resulting reads.
func (m *Machine) firePrefetcher(a *appState, key memsim.PageKey) {
	if m.faultPref == nil {
		return
	}
	inject := m.faultPref.Inject()
	for _, vpn := range m.faultPref.OnFault(a.now, key) {
		k := memsim.PageKey{PID: key.PID, VPN: vpn}
		// Some schemes read ahead past the fault unclipped; a page the
		// vmm never swapped out is dropped before its key is packed.
		if m.vm.Lookup(k) != vmm.SwappedOut || m.inflight.Has(k.Pack()) || !m.remote.Has(k) {
			continue
		}
		m.launchPrefetch(a.now, k, inject, nil)
	}
}

// launchPrefetch issues one prefetch read and schedules its landing.
func (m *Machine) launchPrefetch(now vclock.Time, k memsim.PageKey, inject bool, onInjected func(memsim.PageKey, vclock.Time)) vclock.Time {
	m.met.RemoteReads++
	m.met.PrefetchIssued++
	arrival := m.fabric.PageRead(now)
	inf := m.newInflight()
	inf.key, inf.arrival, inf.inject, inf.onInjected = k, arrival, inject, onInjected
	m.inflight.Put(k.Pack(), inf)
	m.queue.Schedule(arrival, inf.land)
	return arrival
}

func (m *Machine) landPrefetch(k memsim.PageKey, inf *inflightFetch, t vclock.Time) {
	m.inflight.Delete(k.Pack())
	if m.vm.Lookup(k) != vmm.SwappedOut {
		// The page was demand-fetched while we were in flight (possible
		// only via the late-hit path racing the landing event at the
		// same timestamp); drop the duplicate.
		m.freeInflight(inf)
		return
	}
	if inf.inject {
		if _, err := m.vm.MapRemote(k, true); err != nil {
			m.freeInflight(inf)
			return
		}
		if inf.onInjected != nil {
			inf.onInjected(k, t)
		}
	} else {
		if _, err := m.vm.InsertSwapCache(k); err != nil {
			m.freeInflight(inf)
			return
		}
	}
	m.freeInflight(inf)
	// t is the landing time: any writeback this landing forces enters
	// the fabric now, not at time zero.
	m.reclaim(k.PID, t)
}

// reclaim brings the cgroup back under its limit, writing victims to the
// remote node. Reclaim runs in advance of allocations since Linux v5.8
// (§II-A), so its latency stays off the app's critical path. now stamps
// the victims' fabric writebacks.
func (m *Machine) reclaim(pid memsim.PID, now vclock.Time) {
	m.victimBuf = m.vm.ReclaimInto(pid, m.victimBuf[:0])
	victims := m.victimBuf
	if len(victims) == 0 {
		return
	}
	for i := range victims {
		v := &victims[i]
		m.remote.Write(v.Key)
		m.met.RemoteWrites++
		m.fabric.PageWrite(now)
		m.caches.InvalidatePage(v.PPN)
		if v.WasInjected || v.WasSwapCached {
			m.met.PrefetchEvicted++
		}
		if v.WasInjected && m.pref != nil {
			m.pref.Exec.OnEvicted(v.Key)
		}
		if v.WasPrefetched && m.faultPref != nil {
			// A prefetched victim still flagged injected/swapcached was
			// reclaimed before the app ever touched it.
			m.faultPref.OnPrefetchEvicted(now, v.Key, !v.WasInjected && !v.WasSwapCached)
		}
	}
}

// hoppSoftwareDelay is HoPP's hot-page-to-fetch-issue software latency.
const hoppSoftwareDelay = vclock.Microsecond

// hoppBackend adapts the machine to core.Backend without exporting the
// methods on Machine itself.
type hoppBackend Machine

// PageState implements core.Backend.
func (b *hoppBackend) PageState(key memsim.PageKey) vmm.PageState {
	return (*Machine)(b).vm.Lookup(key)
}

// Fetch implements core.Backend: issue the RDMA read after the software
// processing delay and schedule early PTE injection at arrival.
func (b *hoppBackend) Fetch(now vclock.Time, key memsim.PageKey, onInjected func(memsim.PageKey, vclock.Time)) bool {
	m := (*Machine)(b)
	if m.inflight.Has(key.Pack()) {
		return false
	}
	if !m.remote.Has(key) {
		return false
	}
	m.launchPrefetch(now.Add(hoppSoftwareDelay), key, true, onInjected)
	return true
}

// InjectSwapCached implements core.Backend: map an already-local
// swapcache page with the injected flag, so its coming access is a DRAM
// hit instead of a 2.3 µs prefetch-hit.
func (b *hoppBackend) InjectSwapCached(now vclock.Time, key memsim.PageKey) bool {
	m := (*Machine)(b)
	if _, err := m.vm.PromoteInjected(key); err != nil {
		return false
	}
	// now is the software's injection time: writebacks it forces enter
	// the fabric then, not at time zero.
	m.reclaim(key.PID, now)
	return true
}

// FetchBulk implements core.Backend: §IV's huge-space swap — the whole
// window crosses the fabric in ONE transfer (one base latency amortized
// over up to 512 pages), landing as individually injected PTEs.
func (b *hoppBackend) FetchBulk(now vclock.Time, keys []memsim.PageKey, onInjected func(memsim.PageKey, vclock.Time)) bool {
	m := (*Machine)(b)
	if len(keys) == 0 {
		return false
	}
	for _, k := range keys {
		if m.inflight.Has(k.Pack()) || !m.remote.Has(k) {
			return false
		}
	}
	issue := now.Add(hoppSoftwareDelay)
	arrival := m.fabric.Transfer(issue, len(keys)*memsim.PageSize)
	m.met.BulkRequests++
	infs := make([]*inflightFetch, len(keys))
	for i, k := range keys {
		m.met.RemoteReads++
		m.met.PrefetchIssued++
		inf := m.newInflight()
		inf.key, inf.arrival, inf.inject, inf.onInjected = k, arrival, true, nil
		infs[i] = inf
		m.inflight.Put(k.Pack(), inf)
	}
	m.queue.Schedule(arrival, func(t vclock.Time) {
		for i, k := range keys {
			m.landPrefetch(k, infs[i], t)
			onInjected(k, t)
		}
	})
	return true
}

// Stats accessors for experiments and tests.

// Metrics returns the metrics accumulated so far (complete after Run).
func (m *Machine) Metrics() Metrics { return m.met }

// FabricStats exposes the fabric ledger.
func (m *Machine) FabricStats() rdma.Stats { return m.fabric.Stats() }

// Package vmm models the virtual memory subsystem a kernel-based remote
// memory system lives in: per-process page tables, the swapcache,
// per-cgroup page accounting with LRU reclaim, and the §II-A cost model
// for the fault paths.
//
// The model is structural — it tracks page state transitions and
// residency; the simulation engine charges latency using Costs and moves
// bytes over the rdma fabric. Kernel hook points (set_pte_at /
// pte_clear, §V) are exposed as callbacks so the memory controller's RPT
// stays in sync exactly the way HoPP's kernel patch keeps it in sync.
package vmm

import (
	"fmt"

	"hopp/internal/memsim"
	"hopp/internal/radix"
)

// PageState describes where a virtual page currently lives.
type PageState int

// Page states.
const (
	// Untouched: never accessed; first access is a minor (zero-fill) fault.
	Untouched PageState = iota
	// Mapped: present bit set; access is a plain memory access.
	Mapped
	// SwapCached: resident in local DRAM but not mapped; access is a
	// prefetch-hit (§II-C).
	SwapCached
	// SwappedOut: only the remote copy exists; access is a major fault.
	SwappedOut
)

func (s PageState) String() string {
	switch s {
	case Untouched:
		return "untouched"
	case Mapped:
		return "mapped"
	case SwapCached:
		return "swapcached"
	case SwappedOut:
		return "swappedout"
	default:
		return fmt.Sprintf("PageState(%d)", int(s))
	}
}

type page struct {
	key      memsim.PageKey
	ppn      memsim.PPN
	state    PageState // Mapped or SwapCached
	injected bool      // mapped by early PTE injection, not yet touched
	// prefetched is sticky: set when the page arrived via any prefetch
	// (swapcache landing or PTE injection) and kept through promotion,
	// so eviction can report prefetch provenance to the feedback seams.
	prefetched bool
	charged    bool   // counted against the cgroup
	seq        uint64 // swapcache insertion sequence, for freshness
	prev       *page
	next       *page
}

// pte is one VPN's page-table entry: the resident page, if any, and
// whether the VPN was ever swapped out, which tells a major fault from
// a first touch once the page is gone.
type pte struct {
	page *page
	ever bool
}

// lruList is an intrusive doubly-linked list; head is MRU, tail is LRU.
type lruList struct {
	head *page
	tail *page
	n    int
}

func (l *lruList) pushFront(p *page) {
	p.prev, p.next = nil, l.head
	if l.head != nil {
		l.head.prev = p
	}
	l.head = p
	if l.tail == nil {
		l.tail = p
	}
	l.n++
}

func (l *lruList) remove(p *page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = nil, nil
	l.n--
}

func (l *lruList) moveToFront(p *page) {
	if l.head == p {
		return
	}
	l.remove(p)
	l.pushFront(p)
}

// Cgroup is one application's memory control group.
type Cgroup struct {
	pid      memsim.PID
	limit    int // max charged pages; 0 = unlimited
	charged  int
	active   lruList          // mapped pages
	inactive lruList          // swapcache pages
	pt       radix.Index[pte] // VPN → resident page, plus the ever-swapped bit
}

// resident returns vpn's resident page, or nil.
func (c *Cgroup) resident(vpn memsim.VPN) *page {
	if e := c.pt.Get(uint64(vpn)); e != nil {
		return e.page
	}
	return nil
}

// OverLimit returns how many pages over its limit the cgroup is.
func (c *Cgroup) OverLimit() int {
	if c.limit == 0 || c.charged <= c.limit {
		return 0
	}
	return c.charged - c.limit
}

// Config configures the VMM.
type Config struct {
	// ChargePrefetched charges swapcache pages landed by prefetching to
	// the application's cgroup. HoPP does this; Fastswap and Leap do not
	// (§I: "we charge the prefetched pages to the cgroup of the
	// application while Fastswap and Leap did not account for").
	ChargePrefetched bool
}

// swapCacheCapPages bounds *uncharged* swapcache pages per cgroup — the
// slack Fastswap/Leap enjoy by not accounting for prefetches. Beyond the
// cap, global (non-cgroup) reclaim drops the oldest. Irrelevant when
// Config.ChargePrefetched is true.
const swapCacheCapPages = 64

// inactiveProtect shields the most recent swapcache inserts from cgroup
// reclaim (the kernel's referenced-page second chance): a just-landed
// prefetch must get its few µs of grace before the cgroup squeeze can
// take it; older unused prefetches are prime victims.
const inactiveProtect = 16

// Victim describes one evicted page; the engine writes it to the remote
// node and invalidates its CPU cache lines.
type Victim struct {
	Key memsim.PageKey
	PPN memsim.PPN
	// WasMapped is true when a PTE had to be torn down.
	WasMapped bool
	// WasInjected is true when the page was early-PTE-injected and never
	// touched — a wasted prefetch that polluted memory (§II-C).
	WasInjected bool
	// WasSwapCached is true when the page sat unpromoted in the swapcache.
	WasSwapCached bool
	// WasPrefetched is true when the page originally arrived via a
	// prefetch (swapcache landing or PTE injection), whether or not it
	// was touched afterwards. A prefetched victim still carrying
	// WasInjected or WasSwapCached was reclaimed unused.
	WasPrefetched bool
}

// VMM is the machine-wide virtual memory subsystem.
//
// Page residency lives in per-cgroup radix page tables rather than one
// machine-wide map: page classification opens every visit to a page,
// so the lookup is three array indexes, not a hash probe. Evicted page
// structs are pooled on a freelist for the same reason — fault-heavy
// phases recycle them instead of allocating.
type VMM struct {
	cfg Config
	// byPID indexes cgroups by PID (a 16-bit space, so a flat slice is
	// cheap and branch-predictable; unregistered slots are nil).
	byPID []*Cgroup

	nextPPN  memsim.PPN
	freePPNs []memsim.PPN
	// insertSeq orders swapcache inserts for the freshness shield.
	insertSeq uint64

	// pageFree is a freelist of recycled page structs, linked by next.
	pageFree *page

	// OnSetPTE is the set_pte_at hook (→ mc.SetMapping).
	OnSetPTE func(ppn memsim.PPN, pid memsim.PID, vpn memsim.VPN)
	// OnClearPTE is the pte_clear hook (→ mc.ClearMapping).
	OnClearPTE func(ppn memsim.PPN)
}

// New builds a VMM.
func New(cfg Config) *VMM { return &VMM{cfg: cfg} }

// Register creates the cgroup for a process with the given page limit
// (0 = unlimited). Registering a PID twice is an error.
func (v *VMM) Register(pid memsim.PID, limitPages int) (*Cgroup, error) {
	if v.grp(pid) != nil {
		return nil, fmt.Errorf("vmm: pid %d already registered", pid)
	}
	if int(pid) >= len(v.byPID) {
		grown := make([]*Cgroup, int(pid)+1)
		copy(grown, v.byPID)
		v.byPID = grown
	}
	g := &Cgroup{pid: pid, limit: limitPages}
	v.byPID[pid] = g
	return g, nil
}

// Presize allocates pid's page-table leaves for VPNs [lo, hi), so a
// workload whose regions are known up front allocates none mid-run.
func (v *VMM) Presize(pid memsim.PID, lo, hi memsim.VPN) {
	if g := v.grp(pid); g != nil {
		g.pt.Reserve(uint64(lo), uint64(hi))
	}
}

// grp returns the cgroup for pid, or nil when unregistered.
func (v *VMM) grp(pid memsim.PID) *Cgroup {
	if int(pid) < len(v.byPID) {
		return v.byPID[pid]
	}
	return nil
}

// Lookup classifies the page without side effects.
//
//hopplint:hotpath
func (v *VMM) Lookup(key memsim.PageKey) PageState {
	state, _, _ := v.classify(key)
	return state
}

// Access classifies the page and, when it is mapped, applies Touch's
// side effects (injected-flag consumption, LRU refresh) in the same
// table walk — the fused fast path the simulator's per-access loop
// uses. The returned bool reports whether a mapped page was still
// carrying its injected flag before this access consumed it; it is
// false for every other state.
//
//hopplint:hotpath
func (v *VMM) Access(key memsim.PageKey) (PageState, memsim.PPN, bool) {
	state, p, g := v.classify(key)
	if p == nil {
		return state, 0, false
	}
	if state != Mapped {
		return state, p.ppn, false
	}
	wasInjected := p.injected
	p.injected = false
	g.active.moveToFront(p)
	return Mapped, p.ppn, wasInjected
}

// classify walks key's page table: the page's state, its resident page
// (nil unless Mapped or SwapCached) and its cgroup.
func (v *VMM) classify(key memsim.PageKey) (PageState, *page, *Cgroup) {
	g := v.grp(key.PID)
	if g == nil {
		return Untouched, nil, nil
	}
	if e := g.pt.Get(uint64(key.VPN)); e != nil {
		if e.page != nil {
			return e.page.state, e.page, g
		}
		if e.ever {
			return SwappedOut, nil, g
		}
	}
	return Untouched, nil, g
}

// allocPPN hands out a local page frame. Local DRAM is unbounded: the
// per-cgroup limits provide the memory pressure.
func (v *VMM) allocPPN() memsim.PPN {
	if n := len(v.freePPNs); n > 0 {
		p := v.freePPNs[n-1]
		v.freePPNs = v.freePPNs[:n-1]
		return p
	}
	v.nextPPN++
	return v.nextPPN
}

func (v *VMM) freePPN(p memsim.PPN) {
	//hopplint:allocok amortized freelist growth; capacity is reused once the working set has cycled
	v.freePPNs = append(v.freePPNs, p)
}

// newPage takes a page struct off the freelist (or allocates one); the
// caller fully reinitializes it.
// pageSlabSize is how many page structs each backing slab holds.
// Slab allocation keeps pages that are allocated together adjacent in
// memory — the streaming access pattern then walks pages roughly
// sequentially instead of chasing scattered heap objects.
const pageSlabSize = 512

func (v *VMM) newPage() *page {
	if p := v.pageFree; p != nil {
		v.pageFree = p.next
		p.next = nil
		return p
	}
	slab := make([]page, pageSlabSize)
	for i := pageSlabSize - 1; i > 0; i-- {
		slab[i].next = v.pageFree
		v.pageFree = &slab[i]
	}
	return &slab[0]
}

// releasePage returns an evicted page struct to the freelist. The page
// must already be off both LRU lists (remove nils prev/next).
func (v *VMM) releasePage(p *page) {
	*p = page{next: v.pageFree}
	v.pageFree = p
}

func (v *VMM) group(pid memsim.PID) (*Cgroup, error) {
	if g := v.grp(pid); g != nil {
		return g, nil
	}
	return nil, fmt.Errorf("vmm: pid %d not registered", pid)
}

// MapNew services a first-touch minor fault: allocate, zero-fill, map.
func (v *VMM) MapNew(key memsim.PageKey) (memsim.PPN, error) {
	return v.mapFresh(key, false)
}

// MapRemote maps a page whose contents just arrived from the remote
// node, either at the end of a demand major fault (injected=false) or by
// early PTE injection of a prefetched page (injected=true).
func (v *VMM) MapRemote(key memsim.PageKey, injected bool) (memsim.PPN, error) {
	return v.mapFresh(key, injected)
}

func (v *VMM) mapFresh(key memsim.PageKey, injected bool) (memsim.PPN, error) {
	g, err := v.group(key.PID)
	if err != nil {
		return 0, err
	}
	e := g.pt.Slot(uint64(key.VPN))
	if e.page != nil {
		return 0, fmt.Errorf("vmm: page %v already resident", key)
	}
	ppn := v.allocPPN()
	p := v.newPage()
	*p = page{key: key, ppn: ppn, state: Mapped, injected: injected, prefetched: injected, charged: true}
	e.page = p
	g.active.pushFront(p)
	g.charged++
	if v.OnSetPTE != nil {
		v.OnSetPTE(ppn, key.PID, key.VPN)
	}
	return ppn, nil
}

// InsertSwapCache lands a prefetched page in the swapcache, unmapped.
// Whether it is charged to the cgroup depends on Config.ChargePrefetched.
func (v *VMM) InsertSwapCache(key memsim.PageKey) (memsim.PPN, error) {
	g, err := v.group(key.PID)
	if err != nil {
		return 0, err
	}
	e := g.pt.Slot(uint64(key.VPN))
	if e.page != nil {
		return 0, fmt.Errorf("vmm: page %v already resident", key)
	}
	ppn := v.allocPPN()
	v.insertSeq++
	p := v.newPage()
	*p = page{key: key, ppn: ppn, state: SwapCached, prefetched: true, charged: v.cfg.ChargePrefetched, seq: v.insertSeq}
	e.page = p
	g.inactive.pushFront(p)
	if p.charged {
		g.charged++
	}
	return ppn, nil
}

// PromoteSwapCache services a prefetch-hit: the faulting page is found
// in the swapcache and mapped.
func (v *VMM) PromoteSwapCache(key memsim.PageKey) (memsim.PPN, error) {
	g, err := v.group(key.PID)
	if err != nil {
		return 0, err
	}
	p := g.resident(key.VPN)
	if p == nil || p.state != SwapCached {
		return 0, fmt.Errorf("vmm: page %v not in swapcache", key)
	}
	g.inactive.remove(p)
	p.state = Mapped
	if !p.charged {
		p.charged = true
		g.charged++
	}
	g.active.pushFront(p)
	if v.OnSetPTE != nil {
		v.OnSetPTE(p.ppn, key.PID, key.VPN)
	}
	return p.ppn, nil
}

// PromoteInjected injects the PTE for a page that is already local in
// the swapcache — HoPP's cheapest prefetch: no RDMA needed, the fault
// that would have cost a 2.3 µs prefetch-hit becomes a plain DRAM hit.
func (v *VMM) PromoteInjected(key memsim.PageKey) (memsim.PPN, error) {
	ppn, err := v.PromoteSwapCache(key)
	if err != nil {
		return 0, err
	}
	g := v.grp(key.PID)
	p := g.resident(key.VPN)
	p.injected = true
	return ppn, nil
}

// Touch records an ordinary access to a mapped page: LRU promotion and
// clearing the injected flag (the prefetch has now been consumed).
func (v *VMM) Touch(key memsim.PageKey) (memsim.PPN, error) {
	g, err := v.group(key.PID)
	if err != nil {
		return 0, err
	}
	p := g.resident(key.VPN)
	if p == nil || p.state != Mapped {
		return 0, fmt.Errorf("vmm: touch of non-mapped page %v (%v)", key, v.Lookup(key))
	}
	p.injected = false
	g.active.moveToFront(p)
	return p.ppn, nil
}

// ReclaimInto evicts pages until the cgroup is back under its limit,
// preferring charged pages on the inactive (swapcache) list, then the
// active LRU tail — the kernel's two-list approximation. Uncharged
// swapcache pages (Fastswap/Leap prefetches, which those systems do not
// account to the cgroup) are untouched by cgroup reclaim but bounded by
// swapCacheCapPages, modelling the global reclaim that would eventually
// drop them. Victims are appended to the caller-owned victims buffer for
// the engine to write back and invalidate; in the common
// nothing-to-evict case it returns victims unchanged without touching
// the heap, the allocation-free form the simulator hot loop needs.
//
//hopplint:hotpath
func (v *VMM) ReclaimInto(pid memsim.PID, victims []Victim) []Victim {
	g := v.grp(pid)
	if g == nil {
		return victims
	}
	// Global pressure on unaccounted swapcache pages.
	for g.inactive.n > swapCacheCapPages {
		tail := g.inactive.tail
		if tail.charged {
			break // charged pages are handled by cgroup reclaim below
		}
		//hopplint:allocok appends into the caller-owned victims buffer (the ReclaimInto contract)
		victims = append(victims, v.evict(g, tail))
	}
	for g.OverLimit() > 0 {
		victim, ok := v.evictOne(g)
		if !ok {
			break
		}
		//hopplint:allocok appends into the caller-owned victims buffer (the ReclaimInto contract)
		victims = append(victims, victim)
	}
	return victims
}

func (v *VMM) evictOne(g *Cgroup) (Victim, bool) {
	var p *page
	tail := g.inactive.tail
	switch {
	case tail != nil && tail.charged && v.insertSeq-tail.seq > inactiveProtect:
		// A stale unused prefetch: the cheapest, most deserving victim.
		p = tail
	case g.active.tail != nil:
		p = g.active.tail
	case tail != nil:
		p = tail // last resort: even fresh prefetches go when nothing else can
	default:
		return Victim{}, false
	}
	return v.evict(g, p), true
}

func (v *VMM) evict(g *Cgroup, p *page) Victim {
	vic := Victim{
		Key:           p.key,
		PPN:           p.ppn,
		WasMapped:     p.state == Mapped,
		WasInjected:   p.injected,
		WasSwapCached: p.state == SwapCached,
		WasPrefetched: p.prefetched,
	}
	if p.state == Mapped {
		g.active.remove(p)
		if v.OnClearPTE != nil {
			v.OnClearPTE(p.ppn)
		}
	} else {
		g.inactive.remove(p)
	}
	if p.charged {
		g.charged--
	}
	*g.pt.Get(uint64(p.key.VPN)) = pte{ever: true}
	v.freePPN(p.ppn)
	v.releasePage(p)
	return vic
}

package prefetch

import (
	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// Chimera is a hybrid prefetcher that hosts three component schemes —
// stride (per-process majority stride over the recent fault window),
// spatial (next-line neighbourhood), and history (last-successor chain
// replay) — and on each fault lets exactly one of them issue, chosen
// by tracked per-component accuracy. The accuracy counters are fed
// entirely from the feedback seams: every issued page is tagged with
// its component in a direct-mapped filter, a later OnPrefetchHit or
// used eviction credits that component, an unused eviction debits it.
// Accuracies compare by Laplace-smoothed cross-multiplication
// (useful+1)/(total+2), so the arbiter has a uniform prior and never
// divides. Every explore-th fault round-robins a component regardless
// of accuracy so a demoted scheme can earn its way back when the
// workload's phase changes.
//
// Fixed-size tables, allocated at construction; the fault path is
// zero-alloc and deterministic.
const (
	chimStride  = 0
	chimSpatial = 1
	chimHistory = 2
	chimNComp   = 3

	chimHistWindow = 4  // per-process fault window feeding stride voting
	chimPIDBits    = 6  // 64 tracked processes
	chimSuccBits   = 10 // 1024-entry successor table
)

// chimPIDEntry is one process's recent-fault ring.
type chimPIDEntry struct {
	pid   memsim.PID
	valid bool
	hist  [chimHistWindow]memsim.VPN
	n     uint32 // total faults recorded; ring cursor is n % window
}

// chimSuccEntry records the fault that followed a page last time.
type chimSuccEntry struct {
	tag  uint64 // packed page key + 1; 0 = empty
	next memsim.VPN
}

// chimStats is one component's prefetch-outcome tally.
type chimStats struct {
	useful  uint64
	useless uint64
}

// Chimera is the accuracy-arbitrated hybrid. Construct with NewChimera.
type Chimera struct {
	degree  int
	explore int

	faults uint64
	comp   [chimNComp]chimStats
	pids   []chimPIDEntry
	succ   []chimSuccEntry
	issued issuedFilter[uint8] // component that issued each prefetch
	out    []memsim.VPN
}

// NewChimera returns a Chimera prefetcher. degree caps the pages issued
// per fault (default 8); every explore-th fault round-robins a
// component instead of following accuracy (default 16).
func NewChimera(degree, explore int) *Chimera {
	if degree <= 0 {
		degree = 8
	}
	if explore <= 0 {
		explore = 16
	}
	return &Chimera{
		degree:  degree,
		explore: explore,
		pids:    make([]chimPIDEntry, 1<<chimPIDBits),
		succ:    make([]chimSuccEntry, 1<<chimSuccBits),
		issued:  newIssuedFilter[uint8](),
		out:     make([]memsim.VPN, 0, degree),
	}
}

// Name implements Prefetcher.
func (c *Chimera) Name() string { return "Chimera" }

// Inject implements Prefetcher; prefetches land in the swapcache.
func (c *Chimera) Inject() bool { return false }

// OnFault implements Prefetcher: train every component on the fault,
// then let the accuracy leader (or the exploration pick) issue.
//
//hopplint:hotpath
func (c *Chimera) OnFault(_ vclock.Time, key memsim.PageKey) []memsim.VPN {
	c.out = c.out[:0]
	c.faults++

	pe := &c.pids[uint64(key.PID)&(1<<chimPIDBits-1)]
	if !pe.valid || pe.pid != key.PID {
		*pe = chimPIDEntry{pid: key.PID, valid: true}
	}
	// History training: record this fault as the successor of the
	// process's previous one.
	if pe.n > 0 {
		prev := memsim.PageKey{PID: key.PID, VPN: pe.hist[(pe.n-1)%chimHistWindow]}
		s := &c.succ[mix(prev.Pack())>>(64-chimSuccBits)]
		s.tag = prev.Pack() + 1
		s.next = key.VPN
	}
	pe.hist[pe.n%chimHistWindow] = key.VPN
	pe.n++

	comp := c.pick()
	switch comp {
	case chimStride:
		c.strideCandidates(pe, key)
	case chimSpatial:
		c.spatialCandidates(key)
	default:
		c.historyCandidates(key)
	}
	for _, v := range c.out {
		c.issued.note(memsim.PageKey{PID: key.PID, VPN: v}, comp)
	}
	return c.out
}

// pick chooses the issuing component: round-robin on exploration
// rounds, otherwise the Laplace-accuracy leader (ties to the
// lowest-numbered component).
func (c *Chimera) pick() uint8 {
	if c.faults%uint64(c.explore) == 0 {
		return uint8((c.faults / uint64(c.explore)) % chimNComp)
	}
	return c.leader()
}

func (c *Chimera) leader() uint8 {
	best := 0
	for i := 1; i < chimNComp; i++ {
		if c.better(i, best) {
			best = i
		}
	}
	return uint8(best)
}

// better reports whether component a's Laplace-smoothed accuracy
// (useful+1)/(total+2) strictly beats b's, by cross-multiplication.
func (c *Chimera) better(a, b int) bool {
	ua, ta := c.comp[a].useful, c.comp[a].useful+c.comp[a].useless
	ub, tb := c.comp[b].useful, c.comp[b].useful+c.comp[b].useless
	return (ua+1)*(tb+2) > (ub+1)*(ta+2)
}

// strideCandidates prefetches along the majority stride of the
// process's recent faults; with no majority it stays silent and lets
// the arbiter learn that.
func (c *Chimera) strideCandidates(pe *chimPIDEntry, key memsim.PageKey) {
	n := int(pe.n)
	if n > chimHistWindow {
		n = chimHistWindow
	}
	if n < 2 {
		return
	}
	// Boyer–Moore vote over the ring's strides, oldest to newest.
	first := pe.n - uint32(n)
	var candidate memsim.Stride
	count, votes := 0, 0
	for i := first + 1; i != pe.n; i++ {
		s := memsim.StrideBetween(pe.hist[(i-1)%chimHistWindow], pe.hist[i%chimHistWindow])
		votes++
		if count == 0 {
			candidate, count = s, 1
		} else if s == candidate {
			count++
		} else {
			count--
		}
	}
	occur := 0
	for i := first + 1; i != pe.n; i++ {
		if memsim.StrideBetween(pe.hist[(i-1)%chimHistWindow], pe.hist[i%chimHistWindow]) == candidate {
			occur++
		}
	}
	if occur*2 <= votes || candidate == 0 {
		return
	}
	for i := 1; i <= c.degree; i++ {
		v := int64(key.VPN) + int64(i)*int64(candidate)
		if v <= 0 || v > int64(memsim.MaxVPN) {
			break
		}
		c.out = append(c.out, memsim.VPN(v)) //hopplint:allocok appends into the constructor-preallocated out buffer; bounded by degree == cap
	}
}

// spatialCandidates prefetches the next-degree neighbourhood.
func (c *Chimera) spatialCandidates(key memsim.PageKey) {
	for i := 1; i <= c.degree; i++ {
		v := int64(key.VPN) + int64(i)
		if v > int64(memsim.MaxVPN) {
			break
		}
		c.out = append(c.out, memsim.VPN(v)) //hopplint:allocok appends into the constructor-preallocated out buffer; bounded by degree == cap
	}
}

// historyCandidates walks the last-successor chain from the fault.
func (c *Chimera) historyCandidates(key memsim.PageKey) {
	cur := key
	for i := 0; i < c.degree; i++ {
		s := &c.succ[mix(cur.Pack())>>(64-chimSuccBits)]
		if s.tag != cur.Pack()+1 {
			break
		}
		v := s.next
		if v == key.VPN {
			// Chain cycled back to the trigger; stop.
			break
		}
		c.out = append(c.out, v) //hopplint:allocok appends into the constructor-preallocated out buffer; bounded by degree == cap
		cur = memsim.PageKey{PID: key.PID, VPN: v}
	}
}

// OnPrefetchHit implements Prefetcher: credit the issuing component.
//
//hopplint:hotpath
func (c *Chimera) OnPrefetchHit(_ vclock.Time, key memsim.PageKey) {
	comp, ok := c.issued.take(key)
	if !ok {
		return
	}
	c.comp[comp].useful++
}

// OnPrefetchEvicted implements Prefetcher: a used eviction still
// credits the component (the prefetch served its purpose before
// reclaim); an unused one debits it.
//
//hopplint:hotpath
func (c *Chimera) OnPrefetchEvicted(_ vclock.Time, key memsim.PageKey, used bool) {
	comp, ok := c.issued.take(key)
	if !ok {
		return
	}
	if used {
		c.comp[comp].useful++
	} else {
		c.comp[comp].useless++
	}
}

func init() {
	Register(Scheme{
		Name:   "chimera",
		Doc:    "hybrid stride/spatial/history prefetching arbitrated by tracked accuracy",
		Params: []Param{{Key: "degree", Default: 8}, {Key: "explore", Default: 16}},
		Build: func(a Args, _ RegionResolver) Prefetcher {
			return NewChimera(a.Int("degree", 8), a.Int("explore", 16))
		},
	})
}

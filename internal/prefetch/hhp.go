package prefetch

import (
	"math/bits"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// HHP is an offset pattern-table prefetcher in the footprint/SMS
// lineage: while a 64-page region is live, an accumulation table
// records the bitmap of offsets that faulted in it; when the region's
// slot is recycled — displaced by a colliding region, or re-entered at
// its own trigger offset after reclaim (a generation boundary) — the
// bitmap retires into a pattern table keyed by the region's trigger
// offset (the first offset faulted). The next time a
// region opens at that trigger offset, HHP replays the learned
// footprint — pages the trigger historically pulled in — instead of a
// blind neighbourhood.
//
// The pattern table carries a 2-bit confidence per trigger: retiring a
// similar bitmap (Jaccard overlap ≥ ½) reinforces and merges, a
// dissimilar one decays and eventually replaces. The feedback seams
// sharpen patterns page-by-page: a touched prefetch bumps the
// trigger's confidence, an unused eviction prunes that page's bit from
// the pattern so it is never replayed again.
//
// Fixed-size tables, allocated at construction; the fault path is
// zero-alloc and deterministic.
const (
	hhpACBits  = 7 // 128 live regions
	hhpConfMax = 3
)

// hhpACEntry accumulates the fault footprint of one live region.
type hhpACEntry struct {
	tag     uint64 // region id + 1; 0 = empty
	bits    uint64
	trigger uint8
}

// hhpPTEntry is the learned footprint for one trigger offset.
type hhpPTEntry struct {
	bits uint64
	conf uint8
}

// hhpIssued is the (trigger, bit) that issued a prefetch.
type hhpIssued struct {
	trigger uint8
	bit     uint8
}

// HHP is the offset pattern-table prefetcher. Construct with NewHHP.
type HHP struct {
	degree    int // max pages replayed per trigger
	threshold int // min confidence to replay a pattern

	ac     []hhpACEntry
	pt     []hhpPTEntry // indexed by trigger offset
	issued issuedFilter[hhpIssued]
	out    []memsim.VPN
}

// NewHHP returns an HHP prefetcher. degree caps the pages replayed per
// trigger (default 16, clamped to the region size); threshold is the
// minimum 0..3 confidence a pattern needs before it is replayed
// (default 2).
func NewHHP(degree, threshold int) *HHP {
	if degree <= 0 {
		degree = 16
	}
	if degree > regionPages {
		degree = regionPages
	}
	if threshold <= 0 {
		threshold = 2
	}
	if threshold > hhpConfMax {
		threshold = hhpConfMax
	}
	return &HHP{
		degree:    degree,
		threshold: threshold,
		ac:        make([]hhpACEntry, 1<<hhpACBits),
		pt:        make([]hhpPTEntry, regionPages),
		issued:    newIssuedFilter[hhpIssued](),
		out:       make([]memsim.VPN, 0, degree),
	}
}

// Name implements Prefetcher.
func (p *HHP) Name() string { return "HHP" }

// Inject implements Prefetcher; prefetches land in the swapcache.
func (p *HHP) Inject() bool { return false }

// OnFault implements Prefetcher: accumulate the offset into the live
// region, or open a new region (retiring the displaced one) and replay
// the trigger's learned footprint.
//
//hopplint:hotpath
func (p *HHP) OnFault(_ vclock.Time, key memsim.PageKey) []memsim.VPN {
	p.out = p.out[:0]
	region := regionOf(key)
	off := uint8(uint64(key.VPN) & regionOffMask)
	e := &p.ac[mix(region)>>(64-hhpACBits)]
	if e.tag == region+1 {
		if off != e.trigger || e.bits == 1<<off {
			e.bits |= 1 << off
			return p.out
		}
		// The trigger offset major-faulting again means the region's
		// pages were reclaimed and the workload looped back: a
		// generation boundary. Retire the accumulated footprint and
		// reopen — without this, a working set smaller than the
		// accumulation table never recycles a slot and nothing ever
		// retires.
		p.retire(e)
		e.bits = 1 << off
	} else {
		if e.tag != 0 {
			p.retire(e)
		}
		e.tag = region + 1
		e.bits = 1 << off
		e.trigger = off
	}

	t := &p.pt[off]
	if int(t.conf) < p.threshold {
		return p.out
	}
	base := uint64(key.VPN) &^ uint64(regionOffMask)
	replay := t.bits &^ (1 << off)
	for replay != 0 && len(p.out) < p.degree {
		i := bits.TrailingZeros64(replay)
		replay &= replay - 1
		v := memsim.VPN(base + uint64(i))
		p.out = append(p.out, v) //hopplint:allocok appends into the constructor-preallocated out buffer; bounded by degree == cap
		p.issued.note(memsim.PageKey{PID: key.PID, VPN: v}, hhpIssued{trigger: off, bit: uint8(i)})
	}
	return p.out
}

// retire folds a closed region's footprint into its trigger's pattern:
// similar bitmaps (intersection covering ≥ half the union) reinforce
// and merge, dissimilar ones decay the confidence until the stored
// pattern is replaced.
func (p *HHP) retire(e *hhpACEntry) {
	t := &p.pt[e.trigger]
	if t.bits == 0 {
		t.bits = e.bits
		t.conf = 1
		return
	}
	inter := bits.OnesCount64(t.bits & e.bits)
	union := bits.OnesCount64(t.bits | e.bits)
	if 2*inter >= union {
		if t.conf < hhpConfMax {
			t.conf++
		}
		t.bits |= e.bits
		return
	}
	if t.conf > 0 {
		t.conf--
	}
	if t.conf == 0 {
		t.bits = e.bits
		t.conf = 1
	}
}

// OnPrefetchHit implements Prefetcher: a touched replayed page
// reinforces its trigger's confidence.
//
//hopplint:hotpath
func (p *HHP) OnPrefetchHit(_ vclock.Time, key memsim.PageKey) {
	is, ok := p.issued.take(key)
	if !ok {
		return
	}
	t := &p.pt[is.trigger]
	if t.conf > 0 && t.conf < hhpConfMax {
		t.conf++
	}
}

// OnPrefetchEvicted implements Prefetcher: a replayed page reclaimed
// untouched is pruned from the pattern — that offset stops replaying.
//
//hopplint:hotpath
func (p *HHP) OnPrefetchEvicted(_ vclock.Time, key memsim.PageKey, used bool) {
	is, ok := p.issued.take(key)
	if !ok || used {
		return
	}
	p.pt[is.trigger].bits &^= 1 << is.bit
}

func init() {
	Register(Scheme{
		Name:   "hhp",
		Doc:    "offset pattern-table prefetching keyed by region trigger offsets",
		Params: []Param{{Key: "degree", Default: 16}, {Key: "threshold", Default: 2}},
		Build: func(a Args, _ RegionResolver) Prefetcher {
			return NewHHP(a.Int("degree", 16), a.Int("threshold", 2))
		},
	})
}

package prefetch

import (
	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// SPP is a signature-path prefetcher in the style of Kim et al.
// (MICRO'16), adapted from cache lines to pages: faults within a
// 64-page region are compressed into a 12-bit delta signature, a
// set-associative pattern table learns which delta follows each
// signature with a 2-bit confidence counter, and prediction walks the
// signature path multiplying per-step confidence until the product
// falls below the threshold — deep lookahead only where the path has
// repeatedly proven itself.
//
// Unlike the ported kernel baselines, SPP consumes the feedback seams:
// each issued prefetch is remembered in a small direct-mapped filter
// tagged with the pattern-table entry that produced it, and a later
// OnPrefetchHit (page touched) bumps that entry's confidence while an
// unused eviction decays it.
//
// All tables are fixed-size and allocated at construction; the
// steady-state fault path is zero-alloc (guarded by
// testing.AllocsPerRun) and fully deterministic.
const (
	sppSigBits   = 12
	sppSigMask   = (1 << sppSigBits) - 1
	sppSigShift  = 3
	sppSTBits    = 8 // 256-entry signature table
	sppPTWays    = 4
	sppConfMax   = 3 // 2-bit saturating confidence
	sppConfScale = 100
)

// sppSTEntry tracks one active region: the last offset faulted in it
// and the signature of the delta history that led there.
type sppSTEntry struct {
	tag  uint64 // region id + 1; 0 = empty
	last int32
	sig  uint16
}

// sppPTSlot is one way of a pattern-table set: a candidate delta and
// its 2-bit confidence. conf 0 marks the slot invalid.
type sppPTSlot struct {
	delta int16
	conf  uint8
}

// sppIssued is the pattern-table entry that issued a prefetch.
type sppIssued struct {
	sig uint16
	way uint8
}

// SPP is the signature-path prefetcher. Construct with NewSPP.
type SPP struct {
	lookahead int
	threshold int // minimum path confidence (percent) to keep walking

	st     []sppSTEntry
	pt     [][sppPTWays]sppPTSlot
	issued issuedFilter[sppIssued]
	out    []memsim.VPN
}

// NewSPP returns an SPP prefetcher. lookahead bounds the signature-path
// walk (default 4, clamped to the region size); threshold is the
// path-confidence percentage below which the walk stops (default 25).
func NewSPP(lookahead, threshold int) *SPP {
	if lookahead <= 0 {
		lookahead = 4
	}
	if lookahead > regionPages {
		lookahead = regionPages
	}
	if threshold <= 0 {
		threshold = 25
	}
	return &SPP{
		lookahead: lookahead,
		threshold: threshold,
		st:        make([]sppSTEntry, 1<<sppSTBits),
		pt:        make([][sppPTWays]sppPTSlot, 1<<sppSigBits),
		issued:    newIssuedFilter[sppIssued](),
		out:       make([]memsim.VPN, 0, lookahead),
	}
}

// Name implements Prefetcher.
func (p *SPP) Name() string { return "SPP" }

// Inject implements Prefetcher; prefetches land in the swapcache.
func (p *SPP) Inject() bool { return false }

// sppAdvance folds a delta into the signature.
func sppAdvance(sig uint16, delta int16) uint16 {
	return (sig<<sppSigShift ^ uint16(delta)) & sppSigMask
}

// OnFault implements Prefetcher: train the pattern table with the
// observed delta, then walk the signature path while the confidence
// product stays above threshold.
//
//hopplint:hotpath
func (p *SPP) OnFault(_ vclock.Time, key memsim.PageKey) []memsim.VPN {
	p.out = p.out[:0]
	region := regionOf(key)
	off := int32(uint64(key.VPN) & regionOffMask)
	e := &p.st[mix(region)>>(64-sppSTBits)]
	if e.tag != region+1 {
		// New (or collided) region: bootstrap the signature from the
		// trigger offset; no delta to train or predict from yet.
		e.tag = region + 1
		e.last = off
		e.sig = uint16(off) & sppSigMask
		return p.out
	}
	delta := int16(off - e.last)
	if delta == 0 {
		return p.out
	}
	p.train(e.sig, delta)
	e.sig = sppAdvance(e.sig, delta)
	e.last = off

	sig := e.sig
	vpn := int64(key.VPN)
	regionBase := uint64(key.VPN) >> regionShift
	conf := sppConfScale
	for i := 0; i < p.lookahead; i++ {
		way, ok := p.best(sig)
		if !ok {
			break
		}
		s := &p.pt[sig][way]
		conf = conf * int(s.conf) / sppConfMax
		if conf < p.threshold {
			break
		}
		vpn += int64(s.delta)
		if vpn <= 0 || vpn > int64(memsim.MaxVPN) {
			break
		}
		if uint64(vpn)>>regionShift != regionBase {
			// SPP's page boundary: the signature describes in-region
			// behaviour, so the walk stops at the region edge.
			break
		}
		v := memsim.VPN(vpn)
		if v == key.VPN {
			break
		}
		p.out = append(p.out, v) //hopplint:allocok appends into the constructor-preallocated out buffer; the walk is bounded by lookahead == cap
		p.issued.note(memsim.PageKey{PID: key.PID, VPN: v}, sppIssued{sig: sig, way: uint8(way)})
		sig = sppAdvance(sig, s.delta)
	}
	return p.out
}

// train reinforces delta under sig, or claims the lowest-confidence way.
func (p *SPP) train(sig uint16, delta int16) {
	set := &p.pt[sig]
	for i := range set {
		if set[i].conf > 0 && set[i].delta == delta {
			if set[i].conf < sppConfMax {
				set[i].conf++
			}
			return
		}
	}
	victim := 0
	for i := 1; i < sppPTWays; i++ {
		if set[i].conf < set[victim].conf {
			victim = i
		}
	}
	set[victim] = sppPTSlot{delta: delta, conf: 1}
}

// best returns the highest-confidence valid way of sig's set.
func (p *SPP) best(sig uint16) (way int, ok bool) {
	set := &p.pt[sig]
	way = -1
	bestConf := uint8(0)
	for i := 0; i < sppPTWays; i++ {
		if set[i].conf > bestConf {
			way, bestConf = i, set[i].conf
		}
	}
	return way, way >= 0
}

// OnPrefetchHit implements Prefetcher: a touched prefetch reinforces
// the pattern-table entry that issued it.
//
//hopplint:hotpath
func (p *SPP) OnPrefetchHit(_ vclock.Time, key memsim.PageKey) {
	is, ok := p.issued.take(key)
	if !ok {
		return
	}
	s := &p.pt[is.sig][is.way]
	if s.conf > 0 && s.conf < sppConfMax {
		s.conf++
	}
}

// OnPrefetchEvicted implements Prefetcher: an unused eviction decays
// the issuing entry's confidence; a used one was already credited.
//
//hopplint:hotpath
func (p *SPP) OnPrefetchEvicted(_ vclock.Time, key memsim.PageKey, used bool) {
	is, ok := p.issued.take(key)
	if !ok || used {
		return
	}
	s := &p.pt[is.sig][is.way]
	if s.conf > 0 {
		s.conf--
	}
}

func init() {
	Register(Scheme{
		Name:   "spp",
		Doc:    "signature-path prefetching with confidence-throttled lookahead",
		Params: []Param{{Key: "lookahead", Default: 4}, {Key: "threshold", Default: 25}},
		Build: func(a Args, _ RegionResolver) Prefetcher {
			return NewSPP(a.Int("lookahead", 4), a.Int("threshold", 25))
		},
	})
}

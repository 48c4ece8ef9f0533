// Package lru holds the replacement state of a small set-associative
// structure: true LRU over every claim and touch, with empty ways claimed
// before any valid way is evicted. Package cachesim's cache levels and
// package hpd's hot page detection table both keep their tags themselves
// and ask a Sets value which way to fill.
//
// Each set's recency order is one uint64 holding 4-bit way indexes
// ordered MRU (nibble 0) to LRU (nibble ways-1), plus a count of valid
// ways. Empty ways always occupy the LRU end of the permutation — Drop
// moves a freed way there — so Claim finds its victim with one shift and
// a rotate instead of a per-way timestamp scan, the compare chain that
// was once the hottest line in the simulator.
package lru

import (
	"fmt"
	"math/bits"
)

// MaxWays is the widest associativity a packed permutation holds.
const MaxWays = 16

// identityOrder is the nibble permutation 15,14,...,1,0 — the initial
// recency order for a 16-way set (way i at nibble i).
const identityOrder = 0xFEDCBA9876543210

// nibbleBroadcast spreads one nibble to all sixteen positions.
const nibbleBroadcast = 0x1111111111111111

// Sets is the recency state of every set of one structure.
type Sets struct {
	ord      []uint64 // packed recency permutation per set
	valid    []uint8  // count of valid ways per set
	ways     int
	lruShift uint   // 4·(ways-1): the LRU nibble's position
	init     uint64 // identity permutation over ways
}

// New returns sets×ways recency state with every way empty. It panics
// outside 1–MaxWays ways: the geometry is fixed at setup, so a bad one
// is a programming error.
func New(sets, ways int) Sets {
	if ways < 1 || ways > MaxWays {
		panic(fmt.Sprintf("lru: ways must be in [1,%d], got %d", MaxWays, ways))
	}
	s := Sets{
		ord:      make([]uint64, sets),
		valid:    make([]uint8, sets),
		ways:     ways,
		lruShift: uint(4 * (ways - 1)),
		init:     identityOrder & (uint64(1)<<(4*ways-1)<<1 - 1),
	}
	s.Reset()
	return s
}

// Reset marks every way of every set empty.
func (s *Sets) Reset() {
	for i := range s.ord {
		s.ord[i] = s.init
		s.valid[i] = 0
	}
}

// Claim picks the way a new entry of set fills and makes it MRU. The
// victim is the LRU-most way, which is an empty one while any remain;
// full reports that it held a valid entry the caller must evict.
func (s *Sets) Claim(set int) (w int, full bool) {
	o := s.ord[set]
	w = int(o >> s.lruShift)
	s.ord[set] = (o&(uint64(1)<<s.lruShift-1))<<4 | uint64(w)
	if int(s.valid[set]) == s.ways {
		return w, true
	}
	s.valid[set]++
	return w, false
}

// Touch makes valid way w of set MRU. Touching the MRU way (position 0)
// skips the store.
func (s *Sets) Touch(set, w int) {
	o := s.ord[set]
	if p := nibblePos(o, w); p != 0 {
		s.ord[set] = o&^(uint64(1)<<(p+4)-1) | (o&(uint64(1)<<p-1))<<4 | uint64(w)
	}
}

// Drop marks valid way w of set empty, moving it to the LRU end so the
// next Claim reuses it before evicting anything.
func (s *Sets) Drop(set, w int) {
	o := s.ord[set]
	p := nibblePos(o, w)
	low := o & (uint64(1)<<p - 1)
	high := o >> (p + 4)
	s.ord[set] = low | high<<p | uint64(w)<<s.lruShift
	s.valid[set]--
}

// nibblePos returns 4·p where p is the position of the (unique) nibble
// of o equal to w, via a zero-nibble SWAR scan: the lowest zero nibble
// of o^(w·0x11…1) is found exactly by the borrow trick. Unused nibbles
// above ways-1 are zero, but they sit above way 0's real position, so a
// scan for w = 0 stops at the real one first.
func nibblePos(o uint64, w int) uint {
	x := o ^ uint64(w)*nibbleBroadcast
	m := (x - nibbleBroadcast) &^ x & (nibbleBroadcast << 3)
	return uint(bits.TrailingZeros64(m)) &^ 3
}

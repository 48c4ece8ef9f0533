// Package lru holds the replacement state of a small set-associative
// structure: true LRU over every claim and touch, with empty ways claimed
// before any valid way is evicted. Package cachesim's cache levels and
// package hpd's hot page detection table both keep their tags themselves,
// store each set's recency word where they like — the cache beside the
// set's tags, so one set's state shares a host cacheline — and ask an
// Order which way to fill. The caller's own tag tells it whether the
// claimed way held an entry to evict.
//
// A set's recency word is one uint64 holding 4-bit way indexes ordered
// MRU (nibble 0) to LRU (nibble ways-1). Empty ways always occupy the
// LRU end of the permutation — every way starts there, Claim takes the
// LRU-most one, Touch only moves valid ways and Drop moves a freed way
// back to the LRU end — so Claim finds its victim with one shift and a
// rotate instead of a per-way timestamp scan, the compare chain that was
// once the hottest line in the simulator.
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

// Order operates on the recency words of sets of one associativity.
type Order struct {
	lruShift uint   // 4·(ways-1): the LRU nibble's position
	empty    uint64 // identity permutation over ways
}

// New returns the Order for ways-way sets. It panics outside
// 1–MaxWays ways: the geometry is fixed at setup, so a bad one is a
// programming error.
func New(ways int) Order {
	if ways < 1 || ways > MaxWays {
		panic(fmt.Sprintf("lru: ways must be in [1,%d], got %d", MaxWays, ways))
	}
	return Order{
		lruShift: uint(4 * (ways - 1)),
		empty:    identityOrder & (uint64(1)<<(4*ways-1)<<1 - 1),
	}
}

// Empty returns the recency word of a set whose ways are all empty.
func (g Order) Empty() uint64 { return g.empty }

// Claim picks the way a new entry of the set whose recency word is *o
// fills and makes it MRU. The victim is the LRU-most way, which is an
// empty one while any remain; when the caller's tag for it is valid,
// the set was full and the caller must evict that entry.
func (g Order) Claim(o *uint64) int {
	// lruShift is at most 60; masking it tells the compiler so, and the
	// shifts compile without their range guards.
	sh := g.lruShift & 63
	v := *o
	w := v >> sh
	*o = (v&(uint64(1)<<sh-1))<<4 | w
	return int(w)
}

// Touch makes valid way w MRU in *o: the nibbles below w's shift up one
// place and w takes position 0. Touching the MRU way stores *o
// unchanged. The body is kept small enough that a caller wrapping it
// with a check still inlines.
func (g Order) Touch(o *uint64, w int) {
	v := *o
	below := uint64(1)<<nibblePos(v, w) - 1
	*o = v&^(below<<4|0xF) | (v&below)<<4 | uint64(w)
}

// Drop moves way w, whose entry the caller has just emptied, to the LRU
// end of *o so the next Claim reuses it before evicting anything.
func (g Order) Drop(o *uint64, w int) {
	v := *o
	p := nibblePos(v, w)
	low := v & (uint64(1)<<p - 1)
	high := v >> (p + 4)
	*o = low | high<<p | uint64(w)<<(g.lruShift&63)
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

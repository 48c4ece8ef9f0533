// Package radix provides Index, the sparse per-page record store behind
// the VMM's page tables and the cache levels' page residency records.
// It is a three-level radix tree over page numbers, shaped like the
// x86 page-table walk: 512-record leaves under 512-pointer middle
// nodes under a top slice. Nodes are allocated on a key's first touch,
// so memory follows the touched footprint, not the span between the
// lowest and highest key — workloads place regions megabytes of pages
// apart, and a dense array over that span was most of a short
// simulation's allocation.
package radix

import "hopp/internal/memsim"

const (
	leafBits = 9
	leafSize = 1 << leafBits
	midBits  = 9
	midSize  = 1 << midBits
	topShift = leafBits + midBits
)

type leaf[T any] [leafSize]T

type mid[T any] [midSize]*leaf[T]

// Index maps page numbers 0..memsim.MaxVPN to records of type T. The
// zero Index is empty and ready to use. A record stays at its address
// for the Index's lifetime, so callers may hold pointers to it.
//
// The top slice grows to cover the highest key touched; at
// memsim.MaxVPN it is 2^22 pointers (32 MB).
type Index[T any] struct {
	top []*mid[T]
}

// Get returns k's record, or nil when no Slot or Reserve call has
// allocated k's leaf. A key beyond memsim.MaxVPN is never allocated.
//
//hopplint:hotpath
func (x *Index[T]) Get(k uint64) *T {
	if t := k >> topShift; t < uint64(len(x.top)) {
		if m := x.top[t]; m != nil {
			if l := m[k>>leafBits&(midSize-1)]; l != nil {
				return &l[k&(leafSize-1)]
			}
		}
	}
	return nil
}

// At returns k's record, which a Slot or Reserve call must already have
// allocated; on any other key it panics. It is Get without the
// allocation checks, for callers that know the record exists.
//
//hopplint:hotpath
func (x *Index[T]) At(k uint64) *T {
	return &x.top[k>>topShift][k>>leafBits&(midSize-1)][k&(leafSize-1)]
}

// Slot returns k's record, allocating its leaf (zero records) on
// first touch. It panics when k is beyond memsim.MaxVPN.
//
//hopplint:hotpath
func (x *Index[T]) Slot(k uint64) *T {
	if r := x.Get(k); r != nil {
		return r
	}
	return &x.alloc(k)[k&(leafSize-1)]
}

// Reserve allocates the leaves covering keys [lo, hi), as Slot would on
// their first touch. It panics when hi-1 is beyond memsim.MaxVPN.
func (x *Index[T]) Reserve(lo, hi uint64) {
	for k := lo; k < hi; k = (k | (leafSize - 1)) + 1 {
		x.alloc(k)
	}
}

// alloc returns k's leaf, allocating it, its middle node and the top
// slice's reach as needed.
func (x *Index[T]) alloc(k uint64) *leaf[T] {
	if k > uint64(memsim.MaxVPN) {
		panic("radix: key beyond memsim.MaxVPN")
	}
	t := k >> topShift
	if t >= uint64(len(x.top)) {
		//hopplint:allocok cold path: the top slice grows once per 2^18 pages of new address space
		grown := make([]*mid[T], t+1)
		copy(grown, x.top)
		x.top = grown
	}
	m := x.top[t]
	if m == nil {
		//hopplint:allocok cold path: one middle node per 2^18 pages on first touch
		m = new(mid[T])
		x.top[t] = m
	}
	l := &m[k>>leafBits&(midSize-1)]
	if *l == nil {
		//hopplint:allocok cold path: one leaf per 512 pages on first touch
		*l = new(leaf[T])
	}
	return *l
}

package vmm

import "hopp/internal/vclock"

// Costs is the kernel-path cost model, quoted from the swap operation
// breakdown in §II-A of the paper. Every figure is the cost *excluding*
// the network transfer, which the fabric model supplies dynamically.
type Costs struct {
	// ContextSwitch is step (1): page fault entry, ≈0.3 µs.
	ContextSwitch vclock.Duration
	// PTEWalk is step (2): kernel page table traversal, ≈0.6 µs.
	PTEWalk vclock.Duration
	// SwapCacheOp is step (3): swapcache query and, on miss, page +
	// swap-entry allocation and insertion, ≈0.4 µs.
	SwapCacheOp vclock.Duration
	// ReclaimPerPage is step (5): per-page share of batched reclaim,
	// 2–5 µs. Since Linux v5.8 reclaim happens in advance, off the
	// critical path, so no fault path charges it.
	ReclaimPerPage vclock.Duration
	// PTESet is step (6): establishing the PTE and returning to user
	// space, ≈1 µs.
	PTESet vclock.Duration
	// DRAMHit is the cost of an ordinary memory access that misses LLC
	// but needs no kernel involvement, ≈0.1 µs (§II-C).
	DRAMHit vclock.Duration
	// CacheHit is the cost of an access served by the CPU caches.
	CacheHit vclock.Duration
	// MinorFault is a first-touch anonymous fault (allocate + zero-fill
	// + map); identical for every system under comparison.
	MinorFault vclock.Duration
}

// DefaultCosts returns the paper's numbers.
func DefaultCosts() Costs {
	return Costs{
		ContextSwitch:  300 * vclock.Nanosecond,
		PTEWalk:        600 * vclock.Nanosecond,
		SwapCacheOp:    400 * vclock.Nanosecond,
		ReclaimPerPage: 2500 * vclock.Nanosecond,
		PTESet:         1000 * vclock.Nanosecond,
		DRAMHit:        100 * vclock.Nanosecond,
		CacheHit:       15 * vclock.Nanosecond,
		MinorFault:     1500 * vclock.Nanosecond,
	}
}

// PrefetchHit is the kernel overhead of hitting a prefetched page in the
// swapcache: steps (1)+(2)+(3)+(6) = 2.3 µs, the post-v5.8 figure §II-C
// calls "at least 23 times higher than that of a DRAM-hit".
func (c Costs) PrefetchHit() vclock.Duration {
	return c.ContextSwitch + c.PTEWalk + c.SwapCacheOp + c.PTESet
}

// DemandFixed is the kernel-side cost of a major fault excluding the
// network transfer: steps (1)+(2)+(3)+(6), reclaim running in advance.
func (c Costs) DemandFixed() vclock.Duration {
	return c.ContextSwitch + c.PTEWalk + c.SwapCacheOp + c.PTESet
}

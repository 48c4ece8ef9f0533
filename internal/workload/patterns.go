package workload

import (
	"fmt"
	"math/rand"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// defaultThink approximates the per-cacheline compute of a scan-and-add
// workload ("512 additions for a page", §VI-E): a handful of ns per line.
const defaultThink = 4 * vclock.Nanosecond

// NewSequential is the simplest stream: `loops` full sequential scans of
// a region. Quicksort partitions, K-means point scans and the Fig. 22
// microbenchmark are all built on this shape.
func NewSequential(pages, loops int) *Base {
	r := Region{Name: "array", Start: 0x10000, Pages: pages}
	return NewBase("Sequential", []Region{r}, defaultThink, loops, func(*rand.Rand) []visit {
		return seqVisits(r.Start, r.Pages, false)
	})
}

// NewStrided scans a region with a fixed page stride (simple stream with
// stride > 1), `loops` times.
func NewStrided(pages int, stride int64, loops int) *Base {
	r := Region{Name: "array", Start: 0x10000, Pages: pages}
	return NewBase(fmt.Sprintf("Strided-%d", stride), []Region{r}, defaultThink, loops, func(*rand.Rand) []visit {
		count := pages / int(stride)
		return stridedVisits(r.Start, stride, count, memsim.LinesPerPage, false)
	})
}

// NewIntertwined is the Fig. 1 motivating pattern: two simple streams
// with different strides advancing concurrently, plus occasional
// interference pages that belong to no stream. Two passes: the first
// builds the working set, the second measures under pressure.
func NewIntertwined(pagesPerStream int, interferenceFrac float64) *Base {
	a := Region{Name: "streamA", Start: 0x10000, Pages: 2 * pagesPerStream}
	b := Region{Name: "streamB", Start: 0x80000, Pages: pagesPerStream}
	z := Region{Name: "noise", Start: 0x200000, Pages: 4096}
	return NewBase("Intertwined", []Region{a, b, z}, defaultThink, 2, func(rng *rand.Rand) []visit {
		// Stream A strides by 2, stream B by 1 — exactly Fig. 1.
		pa := stridedVisits(a.Start, 2, pagesPerStream, memsim.LinesPerPage, false)
		pb := stridedVisits(b.Start, 1, pagesPerStream, memsim.LinesPerPage, false)
		merged := interleave(pa, pb)
		if interferenceFrac <= 0 {
			return merged
		}
		out := make([]visit, 0, len(merged)+int(float64(len(merged))*interferenceFrac))
		for _, v := range merged {
			out = append(out, v)
			if rng.Float64() < interferenceFrac {
				out = append(out, visit{
					vpn:   z.Start + memsim.VPN(rng.Intn(z.Pages)),
					lines: memsim.LinesPerPage,
				})
			}
		}
		return out
	})
}

// NewLadder is the Fig. 2 pattern: several parallel simple streams
// visited as a "tread" (concentrated accesses across streams), followed
// by a "rise" to the next tread — the footprint of blocked matrix
// multiplication. The streams are unevenly spaced so no single stride
// dominates, which is what defeats SSP and requires LSP.
func NewLadder(treads int, loops int) *Base {
	// Three streams with uneven spacing inside one region.
	spacing := []int64{0, 10, 35}
	span := 40 + treads
	r := Region{Name: "matrix", Start: 0x10000, Pages: span}
	return NewBase("Ladder", []Region{r}, defaultThink, loops, func(*rand.Rand) []visit {
		var out []visit
		for i := 0; i < treads; i++ {
			for _, s := range spacing {
				out = append(out, visit{
					vpn:   r.Start + memsim.VPN(s+int64(i)),
					lines: memsim.LinesPerPage,
				})
			}
		}
		return out
	})
}

// NewRipple is the Fig. 3 pattern: a stride-1 stream distorted by
// out-of-order and across-stream hops whose cumulative strides return to
// the stream — the footprint of stencil sweeps like NPB-MG.
func NewRipple(pages int, loops int) *Base {
	r := Region{Name: "grid", Start: 0x10000, Pages: pages + 8}
	return NewBase("Ripple", []Region{r}, defaultThink, loops, func(rng *rand.Rand) []visit {
		var out []visit
		v := int64(r.Start)
		end := int64(r.Start) + int64(pages)
		for v < end {
			out = append(out, visit{vpn: memsim.VPN(v), lines: memsim.LinesPerPage})
			switch rng.Intn(6) {
			case 0: // hop forward and come back: +3, -2 nets +1
				out = append(out, visit{vpn: memsim.VPN(v + 3), lines: 16})
				v++
			case 1: // out-of-order pair: visit v+2 before v+1
				out = append(out, visit{vpn: memsim.VPN(v + 2), lines: memsim.LinesPerPage})
				out = append(out, visit{vpn: memsim.VPN(v + 1), lines: memsim.LinesPerPage})
				v += 3
			default:
				v++
			}
		}
		return out
	})
}

// NewAddUp is the §VI-E microbenchmark: each of `threads` workers
// allocates and fills its own array, then scans it, "reading and adding
// up all the values of all 8-byte blocks within a page". The workers'
// streams interleave in fault order, which is exactly what breaks Leap.
func NewAddUp(threads, pagesPerThread int) *Base {
	regions := make([]Region, threads)
	for i := range regions {
		regions[i] = Region{
			Name:  fmt.Sprintf("worker%d", i),
			Start: memsim.VPN(0x10000 + i*0x100000),
			Pages: pagesPerThread,
		}
	}
	return NewBase("AddUp", regions, defaultThink, 1, func(*rand.Rand) []visit {
		fill := make([][]visit, threads)
		read := make([][]visit, threads)
		for i, r := range regions {
			fill[i] = seqVisits(r.Start, r.Pages, true)
			read[i] = seqVisits(r.Start, r.Pages, false)
		}
		return append(interleave(fill...), interleave(read...)...)
	})
}

// NewSharedScan models a process streaming over its private data while
// periodically consulting a shared read-only dataset (a shared mapping
// or library). The shared region's pages carry the RPT shared flag
// (§III-C) through the whole pipeline.
//
//hopplint:testonly the only workload with a shared region, for the sim shared-flag tests and the machine fuzz
func NewSharedScan(privatePages, sharedPages, loops int) *Base {
	priv := Region{Name: "private", Start: 0x10000, Pages: privatePages}
	shared := Region{Name: "shared", Start: 0x8000, Pages: sharedPages, Shared: true}
	return NewBase("SharedScan", []Region{priv, shared}, defaultThink, loops, func(rng *rand.Rand) []visit {
		var out []visit
		for i := 0; i < priv.Pages; i++ {
			out = append(out, visit{vpn: priv.Start + memsim.VPN(i), lines: memsim.LinesPerPage})
			if i%2 == 0 {
				out = append(out, visit{
					vpn:   shared.Start + memsim.VPN(rng.Intn(shared.Pages)),
					lines: 8,
				})
			}
		}
		return out
	})
}

// NewRandom touches pages uniformly at random — the unprefetchable
// floor, used in sanity tests.
func NewRandom(pages, touches int) *Base {
	r := Region{Name: "heap", Start: 0x10000, Pages: pages}
	return NewBase("Random", []Region{r}, defaultThink, 1, func(rng *rand.Rand) []visit {
		out := make([]visit, 0, touches)
		for i := 0; i < touches; i++ {
			out = append(out, visit{
				vpn:   r.Start + memsim.VPN(rng.Intn(pages)),
				lines: memsim.LinesPerPage,
			})
		}
		return out
	})
}

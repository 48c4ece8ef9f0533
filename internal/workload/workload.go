// Package workload generates the memory access patterns of the paper's
// evaluation programs (Table IV) and of the motivating microbenchmarks
// (Figs. 1–3). Generators emit cacheline-granularity reads/writes with
// per-access think time; footprints are scaled from the paper's GBs to
// tens of MBs so whole runs finish in seconds, which preserves every
// shape that matters (stream structure, reuse, interleaving) because
// prefetch quality depends on the address sequence, not on absolute
// size.
//
// Internally a generator is a compact "page program" — a list of page
// visits, each expanded into a burst of line accesses on the fly — so
// multi-million-access runs cost a few hundred KB.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// Access is one memory reference.
type Access struct {
	Addr  memsim.VAddr
	Write bool
	// Think is CPU time spent before this access.
	Think vclock.Duration
}

// Region is one mapped memory area (the VMA analogue).
type Region struct {
	Name  string
	Start memsim.VPN
	Pages int
	// Shared marks a region shared between processes (read-only data,
	// shared libraries); the RPT forwards the flag to the software
	// (§III-C) which can treat such pages specially.
	Shared bool
}

// End returns the first VPN past the region.
func (r Region) End() memsim.VPN { return r.Start + memsim.VPN(r.Pages) }

// Contains reports whether the VPN falls inside the region.
func (r Region) Contains(v memsim.VPN) bool { return v >= r.Start && v < r.End() }

// Generator produces a finite access stream. *Base is its one
// implementation; the simulator runs only *Base apps, while trace
// capture and the offline studies take any Generator.
type Generator interface {
	// Name identifies the workload in experiment output.
	Name() string
	// Regions lists the workload's memory areas (for footprint sizing
	// and the VMA prefetcher).
	Regions() []Region
	// FootprintPages is the total distinct pages the workload touches.
	FootprintPages() int
	// Reset rewinds the stream, rebuilding any randomized parts from
	// seed. Must be called before the first Next.
	Reset(seed int64)
	// Next returns the next access; ok = false at the end of the run.
	Next() (Access, bool)
}

// visit is one page-program step: touch `lines` cachelines of the page,
// starting at line `firstLine`, sequentially (wrapping within the page).
// lines is 1–64, so a visit touches each of its lines once.
type visit struct {
	vpn       memsim.VPN
	firstLine uint8
	lines     uint8
	write     bool
}

// spec is what every player of one workload shares: the name, regions,
// think time, loop count and the closure that builds the page program.
// It is immutable once NewBase returns, apart from the seed-0 footprint
// it counts on the first read.
type spec struct {
	name    string
	regions []Region
	think   vclock.Duration
	loops   int
	build   func(rng *rand.Rand) []visit

	footprintOnce sync.Once
	footprint     int
}

// program builds and checks the page program for seed.
func (s *spec) program(seed int64) []visit {
	visits := s.build(rand.New(rand.NewSource(seed)))
	if len(visits) == 0 {
		panic(fmt.Sprintf("workload %s: empty page program (check size parameters)", s.name))
	}
	for _, v := range visits {
		if v.lines == 0 || v.lines > memsim.LinesPerPage {
			panic(fmt.Sprintf("workload %s: %d-line visit of page %d", s.name, v.lines, v.vpn))
		}
	}
	return visits
}

// Base implements Generator by playing a Frozen page program. Reset
// rewinds the program it holds when the seed matches and otherwise
// builds the seed's program from the shared spec. A Base minted by
// Frozen.Replay is bound to the freeze seed and panics on any other.
type Base struct {
	*spec
	prog   *Frozen
	replay bool

	// The cursor. think is the spec's, kept here so Next reads nothing
	// outside the Base.
	visits []visit
	think  vclock.Duration
	vi     int
	li     int
	loop   int
	// Players of different machines step on different threads, and Next
	// writes the cursor on every access: the padding fills the Base to
	// 128 bytes, two cache lines of its own, so no neighbour's cursor
	// bounces a line between cores.
	_ [48]byte
}

// NewBase assembles a generator. think is charged per line access; loops
// is how many passes to run over the page program (iterative apps);
// build constructs the program, using rng for any irregular parts.
// Nothing is built until a Reset, Freeze or FootprintPages needs it.
func NewBase(name string, regions []Region, think vclock.Duration, loops int, build func(rng *rand.Rand) []visit) *Base {
	if loops <= 0 {
		loops = 1
	}
	return &Base{spec: &spec{name: name, regions: regions, think: think, loops: loops, build: build}}
}

// Name implements Generator.
func (b *Base) Name() string { return b.name }

// Regions implements Generator.
func (b *Base) Regions() []Region { return b.regions }

// FootprintPages implements Generator: the number of *distinct* pages
// the seed-0 program touches (memory limits are fractions of this). The
// first call on any player of the workload builds that program and
// counts it, once; later and concurrent callers read the count. Every
// run seed therefore gets the same limit (seeds only permute which
// pages irregular steps touch, so the distinct count is stable across
// seeds to within a few pages anyway).
func (b *Base) FootprintPages() int {
	b.footprintOnce.Do(func() { b.footprint = b.countPages(b.program(0)) })
	return b.footprint
}

// countPages counts the distinct pages visits touch, with one bitmap per
// declared region. A visit outside every region is a generator bug: the
// VMA prefetcher and the footprint both trust the regions.
func (s *spec) countPages(visits []visit) int {
	seen := make([][]uint64, len(s.regions))
	for i, r := range s.regions {
		seen[i] = make([]uint64, (r.Pages+63)/64)
	}
	n, last := 0, -1
	for _, v := range visits {
		if last < 0 || !s.regions[last].Contains(v.vpn) {
			last = slices.IndexFunc(s.regions, func(r Region) bool { return r.Contains(v.vpn) })
			if last < 0 {
				panic(fmt.Sprintf("workload %s: visit of page %d outside its regions", s.name, v.vpn))
			}
		}
		off := v.vpn - s.regions[last].Start
		if w, bit := &seen[last][off/64], uint64(1)<<(off%64); *w&bit == 0 {
			*w |= bit
			n++
		}
	}
	return n
}

// Reset implements Generator.
func (b *Base) Reset(seed int64) {
	b.prog = b.frozenAt(seed)
	b.visits, b.think = b.prog.visits, b.spec.think
	b.vi, b.li, b.loop = 0, 0, 0
}

// frozenAt returns the page program for seed: the one b holds when it
// was built at seed, else a fresh build. A replayer panics instead of
// building.
func (b *Base) frozenAt(seed int64) *Frozen {
	if b.prog != nil && b.prog.seed == seed {
		return b.prog
	}
	if b.replay {
		panic(fmt.Sprintf("workload %s: frozen at seed %d, Reset with seed %d (a frozen stream cannot be rebuilt)",
			b.name, b.prog.seed, seed))
	}
	return &Frozen{spec: b.spec, seed: seed, visits: b.program(seed)}
}

// Next implements Generator.
func (b *Base) Next() (Access, bool) {
	if b.visits == nil {
		panic("workload: Next before Reset")
	}
	for b.vi == len(b.visits) {
		b.loop++
		if b.loop >= b.loops {
			return Access{}, false
		}
		b.vi, b.li = 0, 0
	}
	v := &b.visits[b.vi]
	// Both operands are non-negative and LinesPerPage is a power of two,
	// so the wrap is a mask (the signed % would compile to more).
	line := uint64(int(v.firstLine)+b.li) & (memsim.LinesPerPage - 1)
	addr := memsim.VAddr(uint64(v.vpn)<<memsim.PageShift | line<<memsim.LineShift)
	b.li++
	if b.li >= int(v.lines) {
		b.vi++
		b.li = 0
	}
	return Access{Addr: addr, Write: v.write, Think: b.think}, true
}

// Rest reports the unplayed rest of the visit the last Next opened: the
// line the next access touches and how many lines, that one included,
// the visit has left. Each of those accesses is to the same page with the
// same write flag as the last one, after Think of CPU time. n is 0 when
// the last Next ended its visit.
func (b *Base) Rest() (line, n int) {
	if b.li == 0 {
		return 0, 0
	}
	v := &b.visits[b.vi]
	return (int(v.firstLine) + b.li) & (memsim.LinesPerPage - 1), int(v.lines) - b.li
}

// Skip consumes n of the lines Rest reports, exactly as n calls of Next
// would.
func (b *Base) Skip(n int) {
	b.li += n
	if b.li >= int(b.visits[b.vi].lines) {
		b.vi++
		b.li = 0
	}
}

// Think returns the CPU time charged before every access.
func (b *Base) Think() vclock.Duration { return b.think }

// interleave round-robins several page programs into one, modeling
// concurrently advancing streams within one process.
func interleave(progs ...[]visit) []visit {
	var out []visit
	idx := make([]int, len(progs))
	for {
		done := true
		for s := range progs {
			if idx[s] < len(progs[s]) {
				out = append(out, progs[s][idx[s]])
				idx[s]++
				done = false
			}
		}
		if done {
			return out
		}
	}
}

// seqVisits emits pages [start, start+pages) in order, touching all 64
// lines of each (a full sequential scan).
func seqVisits(start memsim.VPN, pages int, write bool) []visit {
	out := make([]visit, 0, pages)
	for i := 0; i < pages; i++ {
		out = append(out, visit{vpn: start + memsim.VPN(i), lines: memsim.LinesPerPage, write: write})
	}
	return out
}

// stridedVisits emits pages start, start+stride, ... (count pages),
// touching linesPerPage lines of each.
func stridedVisits(start memsim.VPN, stride int64, count int, lines uint8, write bool) []visit {
	out := make([]visit, 0, count)
	v := int64(start)
	for i := 0; i < count; i++ {
		if v > 0 {
			out = append(out, visit{vpn: memsim.VPN(v), lines: lines, write: write})
		}
		v += stride
	}
	return out
}

package workload

import (
	"fmt"
	"math/rand"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// Frozen is an immutable snapshot of one workload's access stream,
// generated once and shared read-only by any number of concurrent
// replayers. It exists for sweep jobs: a grid over (system, frac) reuses
// the same (workload, seed) stream for every point, so the generation
// cost — the expensive build of the randomized page program — is paid
// once per distinct workload instead of once per simulation.
//
// Two representations, chosen by Freeze:
//
//   - *Base generators freeze their compact page program (the visit
//     list built under the freeze seed) plus the canonical footprint and
//     access totals from NewBase. Replayers expand the shared program
//     exactly as Base.Next does, so a replayed run is access-for-access
//     identical to a fresh generator Reset with the same seed — the
//     property that keeps sweep-child results byte-identical to
//     standalone runs and therefore cache-compatible with them.
//   - any other Generator is frozen by recording its full access stream
//     under the freeze seed; replayers walk the shared tape.
//
// A Frozen is bound to the seed it was built under: replayers accept
// Reset only with that seed and panic on any other, because silently
// replaying the wrong stream would poison every result keyed by the
// requested seed.
type Frozen struct {
	name    string
	regions []Region
	seed    int64

	// Page-program form (Base generators).
	visits []visit
	think  vclock.Duration
	loops  int

	// Recorded-tape form (any other Generator).
	tape []Access

	footprint int
	total     int
}

// Freeze snapshots gen's access stream under seed. The generator is
// consumed as a template only — its cursor state is rebuilt, and the
// returned Frozen shares nothing mutable with it. A replayer of a stream
// already frozen under seed hands back that stream instead of a copy.
func Freeze(gen Generator, seed int64) *Frozen {
	switch r := gen.(type) {
	case *frozenProgram:
		if r.f.seed == seed {
			return r.f
		}
	case *frozenTape:
		if r.f.seed == seed {
			return r.f
		}
	}
	f := &Frozen{
		name:    gen.Name(),
		regions: gen.Regions(),
		seed:    seed,
	}
	if b, ok := gen.(*Base); ok {
		// Build the seed's program once, exactly as Reset would, but keep
		// the canonical (seed-0) footprint and totals from NewBase: the
		// machine sizes memory limits from FootprintPages, and those must
		// match a fresh generator's for results to be byte-identical.
		visits := b.build(rand.New(rand.NewSource(seed)))
		if len(visits) == 0 {
			panic(fmt.Sprintf("workload %s: empty page program (check size parameters)", b.name))
		}
		for _, v := range visits {
			if v.lines == 0 {
				panic(fmt.Sprintf("workload %s: zero-line visit of page %d", b.name, v.vpn))
			}
		}
		f.visits = visits
		f.think = b.think
		f.loops = b.loops
		f.footprint = b.footprint
		f.total = b.total
		return f
	}
	// Generic fallback: record the whole stream.
	f.footprint = gen.FootprintPages()
	gen.Reset(seed)
	for {
		acc, ok := gen.Next()
		if !ok {
			break
		}
		f.tape = append(f.tape, acc)
	}
	f.total = len(f.tape)
	return f
}

// Name returns the frozen workload's name.
func (f *Frozen) Name() string { return f.name }

// Seed returns the seed the stream was frozen under — the only seed
// replayers accept.
func (f *Frozen) Seed() int64 { return f.seed }

// Replay mints an independent read-only replayer over the shared
// stream. Replayers carry only cursor state; any number may run
// concurrently on different goroutines.
func (f *Frozen) Replay() Generator {
	if f.visits != nil {
		return &frozenProgram{f: f, visits: f.visits, think: f.think, loops: f.loops}
	}
	return &frozenTape{f: f}
}

// ProgramReplay names the page-program replayer Replay returns for
// *Base-built streams. The simulator type-asserts against it to call
// Next directly — the same devirtualization it applies to *Base — so a
// sweep child's access loop runs as fast as a standalone run's.
type ProgramReplay = frozenProgram

// resetCheck enforces the seed binding shared by both replayer forms.
func (f *Frozen) resetCheck(seed int64) {
	if seed != f.seed {
		panic(fmt.Sprintf("workload %s: frozen at seed %d, Reset with seed %d (a frozen stream cannot be rebuilt)",
			f.name, f.seed, seed))
	}
}

// frozenProgram replays a frozen page program with Base.Next's exact
// expansion, sharing the immutable visit slice with every sibling. The
// hot fields (visits, loops, think) are copied out of the Frozen at
// construction so Next — called once per simulated access — matches
// Base.Next instruction for instruction instead of chasing p.f; a
// slower replayer would silently erase the sweep's stream-sharing win.
type frozenProgram struct {
	f      *Frozen
	visits []visit
	think  vclock.Duration
	loops  int
	vi     int
	li     int
	loop   int
	ready  bool
}

// Name implements Generator.
func (p *frozenProgram) Name() string { return p.f.name }

// Regions implements Generator.
func (p *frozenProgram) Regions() []Region { return p.f.regions }

// FootprintPages implements Generator, reporting the canonical count
// the template generator would — memory limits depend on it.
func (p *frozenProgram) FootprintPages() int { return p.f.footprint }

// TotalAccesses returns the exact access count of a full run.
func (p *frozenProgram) TotalAccesses() int { return p.f.total }

// Reset implements Generator; only the freeze seed is accepted.
func (p *frozenProgram) Reset(seed int64) {
	p.f.resetCheck(seed)
	p.vi, p.li, p.loop = 0, 0, 0
	p.ready = true
}

// Next implements Generator, mirroring Base.Next over the shared
// program.
func (p *frozenProgram) Next() (Access, bool) {
	if !p.ready {
		panic("workload: frozen Next before Reset")
	}
	for p.vi == len(p.visits) {
		p.loop++
		if p.loop >= p.loops {
			return Access{}, false
		}
		p.vi, p.li = 0, 0
	}
	v := &p.visits[p.vi]
	// Same mask-for-modulo wrap as Base.Next: both operands are
	// non-negative and LinesPerPage is a power of two.
	line := uint64(int(v.firstLine)+p.li) & (memsim.LinesPerPage - 1)
	addr := memsim.VAddr(uint64(v.vpn)<<memsim.PageShift | line<<memsim.LineShift)
	p.li++
	if p.li >= int(v.lines) {
		p.vi++
		p.li = 0
	}
	return Access{Addr: addr, Write: v.write, Think: p.think}, true
}

// frozenTape replays a recorded access stream.
type frozenTape struct {
	f     *Frozen
	i     int
	ready bool
}

// Name implements Generator.
func (t *frozenTape) Name() string { return t.f.name }

// Regions implements Generator.
func (t *frozenTape) Regions() []Region { return t.f.regions }

// FootprintPages implements Generator.
func (t *frozenTape) FootprintPages() int { return t.f.footprint }

// TotalAccesses returns the recorded stream length.
func (t *frozenTape) TotalAccesses() int { return t.f.total }

// Reset implements Generator; only the freeze seed is accepted.
func (t *frozenTape) Reset(seed int64) {
	t.f.resetCheck(seed)
	t.i = 0
	t.ready = true
}

// Next implements Generator.
func (t *frozenTape) Next() (Access, bool) {
	if !t.ready {
		panic("workload: frozen Next before Reset")
	}
	if t.i >= len(t.f.tape) {
		return Access{}, false
	}
	acc := t.f.tape[t.i]
	t.i++
	return acc, true
}

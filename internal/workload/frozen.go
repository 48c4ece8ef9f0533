package workload

import (
	"fmt"

	"hopp/internal/vclock"
)

// Frozen is an immutable snapshot of one workload's access stream,
// generated once and shared read-only by any number of concurrent
// replayers. Whoever runs one (workload, seed) stream more than once
// freezes it: a sweep grid over (system, frac), an experiment comparing
// several systems on one app, and sim.Compare's CT_local baseline all
// pay the generation cost — the expensive build of the randomized page
// program — once per distinct stream instead of once per simulation.
//
// Two representations, chosen by Freeze:
//
//   - *Base generators freeze their compact page program (the visit
//     list built under the freeze seed) plus the canonical footprint
//     from NewBase. Replay mints a *Base over the shared
//     program, so a replayed run is access-for-access identical to a
//     fresh generator Reset with the same seed — the property that keeps
//     sweep-child results byte-identical to standalone runs and
//     therefore cache-compatible with them.
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
}

// Freeze snapshots gen's access stream under seed. The generator is
// consumed as a template only — its cursor state is rebuilt, and the
// returned Frozen shares nothing mutable with it. A replayer of a stream
// already frozen under seed hands back that stream instead of a copy.
func Freeze(gen Generator, seed int64) *Frozen {
	switch g := gen.(type) {
	case *Base:
		if g.frozen != nil && g.frozen.seed == seed {
			return g.frozen
		}
		// Build the seed's program once, exactly as Reset would, but keep
		// the canonical (seed-0) footprint from NewBase: the
		// machine sizes memory limits from FootprintPages, and those must
		// match a fresh generator's for results to be byte-identical.
		return &Frozen{
			name:      g.name,
			regions:   g.regions,
			seed:      seed,
			visits:    g.program(seed),
			think:     g.think,
			loops:     g.loops,
			footprint: g.footprint,
		}
	case *frozenTape:
		if g.f.seed == seed {
			return g.f
		}
	}
	// Generic fallback: record the whole stream.
	f := &Frozen{
		name:      gen.Name(),
		regions:   gen.Regions(),
		seed:      seed,
		footprint: gen.FootprintPages(),
	}
	gen.Reset(seed)
	for {
		acc, ok := gen.Next()
		if !ok {
			break
		}
		f.tape = append(f.tape, acc)
	}
	return f
}

// Name returns the frozen workload's name.
func (f *Frozen) Name() string { return f.name }

// Seed returns the seed the stream was frozen under — the only seed
// replayers accept.
func (f *Frozen) Seed() int64 { return f.seed }

// Replay mints an independent read-only replayer over the shared
// stream: a *Base for a frozen page program, a tape walker otherwise.
// Replayers carry only cursor state; any number may run concurrently on
// different goroutines.
func (f *Frozen) Replay() Generator {
	if f.visits != nil {
		return &Base{name: f.name, regions: f.regions, think: f.think, loops: f.loops,
			frozen: f, footprint: f.footprint}
	}
	return &frozenTape{f: f}
}

// resetCheck enforces the seed binding shared by both replayer forms.
func (f *Frozen) resetCheck(seed int64) {
	if seed != f.seed {
		panic(fmt.Sprintf("workload %s: frozen at seed %d, Reset with seed %d (a frozen stream cannot be rebuilt)",
			f.name, f.seed, seed))
	}
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

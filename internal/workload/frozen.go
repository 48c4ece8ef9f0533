package workload

// Frozen is one workload's page program built under one seed: an
// immutable visit list shared read-only by any number of concurrent
// players. Every Base plays one. Whoever runs one (workload, seed)
// stream more than once freezes it: a sweep grid over (system, frac),
// an experiment comparing several systems on one app, and sim.Compare's
// CT_local baseline all pay the build of the randomized page program
// once per distinct stream instead of once per simulation.
//
// Replay mints a *Base over the shared program and the workload's
// shared spec, so a replayed run is access-for-access identical to a
// fresh generator Reset with the same seed, with the same seed-0
// footprint — the property that keeps sweep-child results byte-identical
// to standalone runs and therefore cache-compatible with them.
//
// A Frozen is bound to the seed it was built under: replayers accept
// Reset only with that seed and panic on any other, because silently
// replaying the wrong stream would poison every result keyed by the
// requested seed.
type Frozen struct {
	spec   *spec
	seed   int64
	visits []visit
}

// Freeze returns b's page program under seed. A generator last Reset at
// seed, or a replayer of a stream frozen at seed, hands back the program
// it plays; otherwise the program is built, exactly as Reset would
// build it. b's cursor is left untouched.
func Freeze(b *Base, seed int64) *Frozen { return b.frozenAt(seed) }

// Name returns the frozen workload's name.
func (f *Frozen) Name() string { return f.spec.name }

// Replay mints an independent replayer over the shared program.
// Replayers carry only cursor state; any number may run concurrently on
// different goroutines.
func (f *Frozen) Replay() *Base { return &Base{spec: f.spec, prog: f, replay: true} }

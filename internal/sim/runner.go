package sim

import (
	"context"
	"runtime"

	"hopp/internal/workload"
)

// machineSlots bounds how many machines Run keeps alive at once,
// process-wide: one per scheduler thread (GOMAXPROCS at program start),
// so a fan-out of dozens of simulations holds only as many machines'
// memory as there are cores to run them.
var machineSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// Run builds a machine over gens (see New) and runs it to completion
// while holding one of the process-wide machine slots. It waits for a
// free slot first, giving up with ctx.Err() if ctx ends before one
// frees; once running, see Machine.RunContext for the abort semantics.
// Every simulation the experiments, the service and the facade drive
// goes through here, so nested fan-outs share the one bound without
// deadlocking: tasks hold a slot only while their machine exists, never
// while they wait on sub-tasks. Each generator is Reset by the machine,
// so one instance can be reused across sequential runs.
func Run(ctx context.Context, cfg Config, gens ...workload.Generator) (Metrics, error) {
	select {
	case machineSlots <- struct{}{}:
	case <-ctx.Done():
		return Metrics{}, ctx.Err()
	}
	defer func() { <-machineSlots }()
	m, err := New(cfg, gens...)
	if err != nil {
		return Metrics{}, err
	}
	return m.RunContext(ctx)
}

// Comparison holds one workload's results across systems plus the local
// baseline, ready for normalized-performance reporting.
type Comparison struct {
	Workload string
	Local    Metrics
	Results  []Metrics
}

// Compare runs the workload under every system at base's memory limit
// and once locally — the CT_local baseline of §VI-A, which reuses base
// with memory limits removed and no prefetching. The workload is frozen
// once at base.Seed (a replayer of a stream already frozen there is
// reused as is), and the local baseline and every system run
// concurrently, each machine on its own replay, through Fan and Run;
// the lowest-index failure, the local run first, ends the comparison.
func Compare(ctx context.Context, base Config, gen workload.Generator, systems ...System) (Comparison, error) {
	stream := workload.Freeze(gen, base.Seed)
	runs := make([]Metrics, 1+len(systems))
	err := Fan(ctx, len(runs), func(ctx context.Context, i int) error {
		cfg := base
		if i == 0 {
			cfg.LocalMemoryFrac = 0
			cfg.LocalMemoryPages = 0
			cfg.System = NoPrefetch()
		} else {
			cfg.System = systems[i-1]
		}
		var err error
		runs[i], err = Run(ctx, cfg, stream.Replay())
		return err
	})
	cmp := Comparison{Workload: gen.Name()}
	if err != nil {
		return cmp, err
	}
	cmp.Local, cmp.Results = runs[0], runs[1:]
	return cmp, nil
}

// Normalized returns CT_local/CT_system for the i-th system.
func (c Comparison) Normalized(i int) float64 {
	return c.Results[i].NormalizedPerformance(c.Local)
}

// Find returns the metrics for a system by name.
func (c Comparison) Find(name string) (Metrics, bool) {
	for _, m := range c.Results {
		if m.System == name {
			return m, true
		}
	}
	return Metrics{}, false
}

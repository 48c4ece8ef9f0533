package sim

import (
	"context"

	"hopp/internal/workload"
)

// RunWith runs one workload under one system using the base config
// (its System field is replaced).
func RunWith(base Config, sys System, gen workload.Generator) (Metrics, error) {
	return RunWithContext(context.Background(), base, sys, gen)
}

// RunWithContext is RunWith honoring cancellation and deadlines; see
// Machine.RunContext for the abort semantics.
func RunWithContext(ctx context.Context, base Config, sys System, gen workload.Generator) (Metrics, error) {
	base.System = sys
	m, err := New(base, gen)
	if err != nil {
		return Metrics{}, err
	}
	return m.RunContext(ctx)
}

// RunWorkload runs one workload under one system with each app's cgroup
// limited to frac of its footprint (0 = local). The generator is Reset
// by the machine, so the same instance can be reused across sequential
// runs.
func RunWorkload(sys System, gen workload.Generator, frac float64, seed int64) (Metrics, error) {
	return RunWith(Config{LocalMemoryFrac: frac, Seed: seed}, sys, gen)
}

// RunWorkloadContext is RunWorkload honoring cancellation.
func RunWorkloadContext(ctx context.Context, sys System, gen workload.Generator, frac float64, seed int64) (Metrics, error) {
	return RunWithContext(ctx, Config{LocalMemoryFrac: frac, Seed: seed}, sys, gen)
}

// RunLocal runs the workload with unlimited local memory — the
// CT_local baseline of §VI-A.
func RunLocal(gen workload.Generator, seed int64) (Metrics, error) {
	return RunWorkload(NoPrefetch(), gen, 0, seed)
}

// Comparison holds one workload's results across systems plus the local
// baseline, ready for normalized-performance reporting.
type Comparison struct {
	Workload string
	Local    Metrics
	Results  []Metrics
}

// Compare runs the workload locally and under every system at the given
// memory fraction.
func Compare(gen workload.Generator, frac float64, seed int64, systems ...System) (Comparison, error) {
	return CompareWith(Config{LocalMemoryFrac: frac, Seed: seed}, gen, systems...)
}

// CompareWith is Compare with full control over the machine config. The
// local baseline reuses the config with memory limits removed.
func CompareWith(base Config, gen workload.Generator, systems ...System) (Comparison, error) {
	return CompareWithContext(context.Background(), base, gen, systems...)
}

// CompareWithContext is CompareWith honoring cancellation. The workload
// is frozen once at base.Seed (a replayer of a stream already frozen
// there is reused as is), and the local baseline and every system run
// concurrently, each machine on its own replay, through Fan and
// RunMachine; the lowest-index failure, the local run first, ends the
// comparison.
func CompareWithContext(ctx context.Context, base Config, gen workload.Generator, systems ...System) (Comparison, error) {
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
		runs[i], err = RunMachine(ctx, cfg, stream.Replay())
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

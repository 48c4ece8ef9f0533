package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"hopp/internal/sim"
	"hopp/internal/workload"
)

// perAccess hides a generator's concrete type. The machine batches the
// rest of a mapped page's visit only for a *workload.Base, so a wrapped
// catalog workload runs the same stream one access per step.
type perAccess struct{ workload.Generator }

// visitPoint is one machine configuration run both ways.
type visitPoint struct {
	name string
	cfg  sim.Config
	apps []string
}

// TestVisitBatchMatchesPerAccess runs each point with the visit batch
// and with every access stepped on its own, and requires identical
// Metrics and errors: the batch may only skip work that is a no-op
// mid-visit. The points cover every catalog workload under the local
// baseline and three systems at two memory limits, a 2-app co-run (the
// batch's peer bound) and a 3-app one (no batching), HoPP under lazy
// LRU, and MaxAccesses cuts that land mid-visit.
func TestVisitBatchMatchesPerAccess(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	with := func(frac float64, sys sim.System, edit func(*sim.Config)) sim.Config {
		cfg := o.SimConfig(frac)
		cfg.System = sys
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	var points []visitPoint
	for _, name := range WorkloadNames() {
		points = append(points, visitPoint{name + "/local", with(0, sim.NoPrefetch(), nil), []string{name}})
		for _, sys := range []sim.System{sim.Fastswap(), sim.Leap(), sim.HoPP()} {
			for _, frac := range []float64{0.5, 0.25} {
				points = append(points, visitPoint{fmt.Sprintf("%s/%s/%v", name, sys.Name, frac), with(frac, sys, nil), []string{name}})
			}
		}
	}
	points = append(points,
		visitPoint{"corun2/hopp", with(0.5, sim.HoPP(), nil), []string{"omp-kmeans", "quicksort"}},
		visitPoint{"corun2/fastswap", with(0.5, sim.Fastswap(), nil), []string{"npb-mg", "npb-cg"}},
		visitPoint{"corun3/hopp", with(0.5, sim.HoPP(), nil), []string{"graphx-pr", "spark-kmeans", "hpl"}},
		// The abort comes at access 100 018, line 49 of a 64-line visit.
		visitPoint{"maxaccesses/hopp", with(0.5, sim.HoPP(), func(c *sim.Config) { c.MaxAccesses = 100_017 }), []string{"sequential"}},
		visitPoint{"maxaccesses/corun2", with(0.5, sim.Fastswap(), func(c *sim.Config) { c.MaxAccesses = 50_000 }), []string{"ripple", "ladder"}},
	)
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			batched, perAcc := make([]workload.Generator, len(p.apps)), make([]workload.Generator, len(p.apps))
			for i, name := range p.apps {
				batched[i] = catalog[name](o)
				perAcc[i] = perAccess{catalog[name](o)}
			}
			got, gotErr := sim.Run(context.Background(), p.cfg, batched...)
			want, wantErr := sim.Run(context.Background(), p.cfg, perAcc...)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("batched error %v, per-access error %v", gotErr, wantErr)
			}
			if p.cfg.MaxAccesses != 0 && gotErr == nil {
				t.Fatalf("run finished under MaxAccesses=%d; the cut is meant to abort it", p.cfg.MaxAccesses)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batched Metrics differ from per-access:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"hopp/internal/refsim"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

// visitPoint is one machine configuration run on sim.Machine and on the
// reference machine.
type visitPoint struct {
	name string
	cfg  sim.Config
	apps []string
}

// TestVisitBatchMatchesPerAccess runs each point on sim.Machine, which
// batches the rest of a mapped page's visit, and on the naive reference
// machine (internal/refsim), which plays one access per trip, and
// requires identical Metrics and errors. The points cover every catalog
// workload at quick scale under the local baseline and under Fastswap,
// Leap and HoPP at two memory limits, a 2-app co-run (the visit batch's
// peer bound) and a 3-app one (no batching), and MaxAccesses cuts that
// land mid-visit.
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
			gens, refGens := make([]workload.Generator, len(p.apps)), make([]*workload.Base, len(p.apps))
			for i, name := range p.apps {
				gens[i] = catalog[name](o)
				refGens[i] = catalog[name](o)
			}
			got, gotErr := sim.Run(context.Background(), p.cfg, gens...)
			want, wantErr := refsim.Run(p.cfg, refGens...)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("machine error %v, reference error %v", gotErr, wantErr)
			}
			if p.cfg.MaxAccesses != 0 && gotErr == nil {
				t.Fatalf("run finished under MaxAccesses=%d; the cut is meant to abort it", p.cfg.MaxAccesses)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("machine Metrics differ from the reference:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

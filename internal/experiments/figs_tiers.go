package experiments

import (
	"context"

	"fmt"

	"hopp/internal/core"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

// hoppTiers builds the three ablation configurations of Fig. 18:
// SSP alone, SSP+LSP, and the full three-tier cascade.
func hoppTiers() []sim.System {
	ssp := core.DefaultParams()
	ssp.EnableLSP, ssp.EnableRSP = false, false
	sspLsp := core.DefaultParams()
	sspLsp.EnableRSP = false
	all := core.DefaultParams()

	a := sim.HoPPWith(ssp)
	a.Name = "HoPP-SSP"
	b := sim.HoPPWith(sspLsp)
	b.Name = "HoPP-SSP+LSP"
	c := sim.HoPPWith(all)
	c.Name = "HoPP-all"
	return []sim.System{a, b, c}
}

// Fig18 regenerates the tier-ablation speedup study: completion time
// speedup over Fastswap as tiers are added.
func Fig18(ctx context.Context, o Options) ([]Table, error) {
	t := Table{
		Title:  "Fig. 18: speedup over Fastswap as prefetch tiers are added",
		Header: []string{"Workload", "SSP", "SSP+LSP", "SSP+LSP+RSP"},
		Note:   "paper: speedup grows with each tier; coverage gains come at no accuracy cost",
	}
	gens := o.gens(tierSuite...)
	grid, err := o.runGrid(ctx, "fig18", gens, 0.5, append([]sim.System{sim.Fastswap()}, hoppTiers()...)...)
	if err != nil {
		return nil, err
	}
	for i, runs := range grid {
		row := []string{gens[i].Name()}
		for _, met := range runs[1:] {
			row = append(row, pct(met.SpeedupOver(runs[0])))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Fig19 regenerates per-tier prefetch accuracy under the full cascade.
func Fig19(ctx context.Context, o Options) ([]Table, error) {
	t := Table{
		Title:  "Fig. 19: per-tier prefetch accuracy (full three-tier HoPP)",
		Header: []string{"Workload", "SSP", "LSP", "RSP"},
		Note:   "paper: every tier stays above 90%; combining them does not dilute accuracy",
	}
	gens := o.gens(tierSuite...)
	grid, err := o.runGrid(ctx, "fig19", gens, 0.5, sim.HoPP())
	if err != nil {
		return nil, err
	}
	for i, runs := range grid {
		met := runs[0]
		row := []string{gens[i].Name()}
		for _, tier := range []core.Tier{core.TierSSP, core.TierLSP, core.TierRSP} {
			if met.IssuedByTier[tier] == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, f3(float64(met.HitsByTier[tier])/float64(met.IssuedByTier[tier])))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Fig20 regenerates per-tier coverage contribution under the full
// cascade: what share of would-be remote requests each tier absorbed.
func Fig20(ctx context.Context, o Options) ([]Table, error) {
	t := Table{
		Title:  "Fig. 20: per-tier coverage contribution (full three-tier HoPP)",
		Header: []string{"Workload", "SSP", "LSP", "RSP", "Total coverage"},
		Note:   "paper: SSP takes the major part; LSP adds up to ~9% (HPL) and RSP ~10% (NPB-MG)",
	}
	gens := o.gens(tierSuite...)
	grid, err := o.runGrid(ctx, "fig20", gens, 0.5, sim.HoPP())
	if err != nil {
		return nil, err
	}
	for i, runs := range grid {
		met := runs[0]
		den := float64(met.MajorFaults + met.PrefetchHits())
		row := []string{gens[i].Name()}
		for _, tier := range []core.Tier{core.TierSSP, core.TierLSP, core.TierRSP} {
			if den == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, f3(float64(met.HitsByTier[tier])/den))
		}
		row = append(row, f3(met.Coverage()))
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Fig21 regenerates the accuracy/coverage vs performance scatter: one
// row per (workload, system) point.
func Fig21(ctx context.Context, o Options) ([]Table, error) {
	t := Table{
		Title:  "Fig. 21: accuracy and coverage vs normalized performance (50% local)",
		Header: []string{"Workload", "System", "Accuracy", "Coverage", "NormPerf"},
		Note:   "paper: points with accuracy and coverage near 1 approach normalized performance 1; at equal coverage HoPP still wins via early PTE injection",
	}
	cmps, err := suiteComparisons(ctx, o, o.gens(tableIVSuite...), 0.5)
	if err != nil {
		return nil, err
	}
	for _, cmp := range cmps {
		for i, met := range cmp.Results {
			t.Rows = append(t.Rows, []string{
				cmp.Workload, met.System,
				f3(met.PrefetcherAccuracy()), f3(met.Coverage()), f3(cmp.Normalized(i)),
			})
		}
	}
	return []Table{t}, nil
}

// Fig22 regenerates the §VI-E technique ablation on the two-thread
// add-up microbenchmark: Leap vs VMA vs fixed-offset HoPP vs adaptive
// HoPP, all against the Fastswap baseline.
func Fig22(ctx context.Context, o Options) ([]Table, error) {
	gen := catalog["addup"](o)
	fixed := func(name string, offset float64) sim.System {
		p := core.DefaultParams()
		p.Policy.Adaptive = false
		p.Policy.InitialOffset = offset
		s := sim.HoPPWith(p)
		s.Name = name
		return s
	}
	systems := []sim.System{
		sim.Leap(),
		sim.VMA(),
		fixed("HoPP(offset=1)", 1),
		fixed("HoPP(offset=1K)", 1000),
		sim.HoPP(),
	}
	t := Table{
		Title:  "Fig. 22: technique impact on the 2-thread add-up microbenchmark (Fastswap baseline)",
		Header: []string{"System", "Speedup vs Fastswap", "Accuracy", "Coverage", "NormPerf"},
		Note:   "paper: Leap < Fastswap (interleaved streams); VMA +3.6%; HoPP ≈ +40% over VMA via early PTE injection; dynamic offset beats both fixed extremes",
	}
	// Unit 0 is the Fastswap baseline, unit 1 the all-local run, then
	// one unit per system.
	stream := workload.Freeze(gen, o.Seed)
	runs, err := each(ctx, 2+len(systems), func(ctx context.Context, k int) (sim.Metrics, error) {
		switch k {
		case 0:
			return o.runOne(ctx, sim.Fastswap(), stream.Replay(), 0.5)
		case 1:
			return o.runOne(ctx, sim.NoPrefetch(), stream.Replay(), 0)
		}
		sys := systems[k-2]
		met, err := o.runOne(ctx, sys, stream.Replay(), 0.5)
		if err != nil {
			return met, fmt.Errorf("fig22 %s: %w", sys.Name, err)
		}
		return met, nil
	})
	if err != nil {
		return nil, err
	}
	fast, local := runs[0], runs[1]
	t.Rows = append(t.Rows, []string{"Fastswap", pct(0), f3(fast.Accuracy()), f3(fast.Coverage()), f3(fast.NormalizedPerformance(local))})
	for i, sys := range systems {
		met := runs[2+i]
		t.Rows = append(t.Rows, []string{
			sys.Name, pct(met.SpeedupOver(fast)),
			f3(met.PrefetcherAccuracy()), f3(met.Coverage()), f3(met.NormalizedPerformance(local)),
		})
	}
	return []Table{t}, nil
}

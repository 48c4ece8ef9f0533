package experiments

import (
	"context"

	"fmt"

	"hopp/internal/sim"
	"hopp/internal/workload"
)

// perfTable fills t with the normalized performance (CT_local/CT_system)
// of Fastswap and HoPP on every suite workload, one column per (frac,
// system) in that order, and a closing row of column averages.
func (o Options) perfTable(ctx context.Context, id string, t Table, suite []string, fracs ...float64) ([]Table, error) {
	cmps, err := o.compare(ctx, id, suite, fracs, sim.Fastswap(), sim.HoPP())
	if err != nil {
		return nil, err
	}
	sums := make([]float64, 2*len(fracs))
	for i, cmp := range cmps[0] {
		row := []string{cmp.Workload}
		for k := range fracs {
			for j := 0; j < 2; j++ {
				v := cmps[k][i].Normalized(j)
				row = append(row, f3(v))
				sums[2*k+j] += v
			}
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"Average"}
	for _, sum := range sums {
		avg = append(avg, f3(sum/float64(len(suite))))
	}
	t.Rows = append(t.Rows, avg)
	return []Table{t}, nil
}

// accuracyTable renders Fastswap's and HoPP's prefetcher accuracy on
// every suite workload at frac.
func (o Options) accuracyTable(ctx context.Context, id, title string, suite []string, frac float64) ([]Table, error) {
	gens := o.gens(suite...)
	grid, err := o.runGrid(ctx, id, gens, frac, sim.Fastswap(), sim.HoPP())
	if err != nil {
		return nil, err
	}
	t := Table{Title: title, Header: []string{"Workload", "Fastswap", "HoPP"}}
	for i, runs := range grid {
		fast, hopp := runs[0], runs[1]
		t.Rows = append(t.Rows, []string{gens[i].Name(), f3(fast.PrefetcherAccuracy()), f3(hopp.PrefetcherAccuracy())})
	}
	return []Table{t}, nil
}

// coverageTable renders Fastswap's and HoPP's coverage on every suite
// workload at frac, HoPP's split into DRAM hits (early PTE injection)
// and swapcache hits.
func (o Options) coverageTable(ctx context.Context, id, title string, suite []string, frac float64) ([]Table, error) {
	gens := o.gens(suite...)
	grid, err := o.runGrid(ctx, id, gens, frac, sim.Fastswap(), sim.HoPP())
	if err != nil {
		return nil, err
	}
	t := Table{Title: title, Header: []string{"Workload", "Fastswap", "HoPP total", "HoPP DRAM-hit", "HoPP swapcache"}}
	for i, runs := range grid {
		fast, hopp := runs[0], runs[1]
		t.Rows = append(t.Rows, []string{
			gens[i].Name(), f3(fast.Coverage()), f3(hopp.Coverage()),
			f3(hopp.DRAMHitCoverage()), f3(hopp.SwapCacheHitCoverage()),
		})
	}
	return []Table{t}, nil
}

// Fig9 regenerates the non-JVM normalized performance comparison at 50%
// and 25% local memory.
func Fig9(ctx context.Context, o Options) ([]Table, error) {
	return o.perfTable(ctx, "fig9", Table{
		Title:  "Fig. 9: normalized performance (CT_local/CT_system), non-JVM workloads",
		Header: []string{"Workload", "Fastswap 50%", "HoPP 50%", "Fastswap 25%", "HoPP 25%"},
		Note:   "paper: HoPP averages 67.4% (50%) and 53.1% (25%); Fastswap 56.3% and 40.9%; HoPP always ≥ Fastswap",
	}, nonJVMSuite, 0.5, 0.25)
}

// Fig10 regenerates the non-JVM prefetch accuracy comparison.
func Fig10(ctx context.Context, o Options) ([]Table, error) {
	return o.accuracyTable(ctx, "fig10",
		"Fig. 10: prefetch accuracy, non-JVM (paper: HoPP >90%, +18% over Fastswap)",
		nonJVMSuite, 0.5)
}

// Fig11 regenerates the non-JVM coverage comparison.
func Fig11(ctx context.Context, o Options) ([]Table, error) {
	return o.coverageTable(ctx, "fig11",
		"Fig. 11: prefetch coverage, non-JVM (paper: HoPP >99% on Quicksort/K-means; DRAM-hit part dominates)",
		nonJVMSuite, 0.5)
}

// Fig12 regenerates the Spark-suite normalized performance comparison.
func Fig12(ctx context.Context, o Options) ([]Table, error) {
	return o.perfTable(ctx, "fig12", Table{
		Title:  "Fig. 12: normalized performance, Spark workloads (local memory = 1/3 of footprint, the paper's 11 of 33 GB)",
		Header: []string{"Workload", "Fastswap", "HoPP"},
		Note:   "paper: HoPP averages 35.7% vs Fastswap 26.4%; biggest win on Spark-KMeans, smallest on GraphX-CC",
	}, sparkSuite, 1.0/3)
}

// Fig13 regenerates Spark prefetch accuracy.
func Fig13(ctx context.Context, o Options) ([]Table, error) {
	return o.accuracyTable(ctx, "fig13",
		"Fig. 13: prefetch accuracy, Spark (paper: HoPP +18% over Fastswap on average)",
		sparkSuite, 1.0/3)
}

// Fig14 regenerates Spark prefetch coverage.
func Fig14(ctx context.Context, o Options) ([]Table, error) {
	return o.coverageTable(ctx, "fig14",
		"Fig. 14: prefetch coverage, Spark (paper: lower than non-JVM due to JVM memory management; HoPP +29.1%)",
		sparkSuite, 1.0/3)
}

// Fig15 regenerates the multi-application experiment: pairs of programs
// run together, each cgroup-limited to 50% of its own footprint, and we
// report HoPP's speedup over Fastswap per application.
func Fig15(ctx context.Context, o Options) ([]Table, error) {
	t := Table{
		Title:  "Fig. 15: HoPP speedup over Fastswap with multiple applications running together",
		Header: []string{"Pair", "App", "CT Fastswap", "CT HoPP", "Speedup"},
		Note:   "paper: PID-tagged hot pages keep per-application streams separable, so HoPP keeps its win",
	}
	pairs := [][2]*workload.Base{
		{workload.NewOMPKMeans(o.scale(2048), 3), workload.NewQuicksort(o.scale(2048))},
		{workload.NewNPBMG(o.scale(1536), 2), workload.NewNPBCG(o.scale(1536), 2)},
		{workload.NewGraphX("PR", o.scale(640)), workload.NewSparkKMeans(o.scale(1536))},
	}
	// App i of a co-run is frozen at the seed sim.New resets it with.
	// Run 2p is pair p under Fastswap, run 2p+1 under HoPP.
	var runs []run
	for _, pair := range pairs {
		apps := []*workload.Frozen{workload.Freeze(pair[0], o.Seed), workload.Freeze(pair[1], o.Seed+101)}
		runs = append(runs, o.on(sim.Fastswap(), 0.5, apps...), o.on(sim.HoPP(), 0.5, apps...))
	}
	mets, err := o.runAll(ctx, "fig15", runs)
	if err != nil {
		return nil, err
	}
	for pi, pair := range pairs {
		fast, hopp := mets[2*pi], mets[2*pi+1]
		label := fmt.Sprintf("pair%d", pi+1)
		for _, g := range pair {
			name := g.Name()
			ctF, ctH := fast.PerApp[name], hopp.PerApp[name]
			speedup := 1 - float64(ctH)/float64(ctF)
			t.Rows = append(t.Rows, []string{
				label, name, ctF.String(), ctH.String(), pct(speedup),
			})
		}
	}
	return []Table{t}, nil
}

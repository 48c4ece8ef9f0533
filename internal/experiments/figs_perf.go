package experiments

import (
	"context"

	"fmt"

	"hopp/internal/sim"
	"hopp/internal/workload"
)

// suiteComparisons runs every workload in a suite against Fastswap and
// HoPP at each memory fraction, all comparisons concurrently over one
// frozen stream per workload. Entry k*len(gens)+i is workload i at
// fracs[k].
func suiteComparisons(ctx context.Context, o Options, gens []workload.Generator, fracs ...float64) ([]sim.Comparison, error) {
	streams := o.freeze(gens...)
	return each(ctx, len(fracs)*len(streams), func(ctx context.Context, k int) (sim.Comparison, error) {
		s := streams[k%len(streams)]
		cmp, err := o.compareAll(ctx, s.Replay(), fracs[k/len(streams)], sim.Fastswap(), sim.HoPP())
		if err != nil {
			return cmp, fmt.Errorf("%s: %w", s.Name(), err)
		}
		return cmp, nil
	})
}

// Fig9 regenerates the non-JVM normalized performance comparison at 50%
// and 25% local memory.
func Fig9(ctx context.Context, o Options) ([]Table, error) {
	t := Table{
		Title:  "Fig. 9: normalized performance (CT_local/CT_system), non-JVM workloads",
		Header: []string{"Workload", "Fastswap 50%", "HoPP 50%", "Fastswap 25%", "HoPP 25%"},
		Note:   "paper: HoPP averages 67.4% (50%) and 53.1% (25%); Fastswap 56.3% and 40.9%; HoPP always ≥ Fastswap",
	}
	gens := NonJVMWorkloads(o)
	cmps, err := suiteComparisons(ctx, o, gens, 0.5, 0.25)
	if err != nil {
		return nil, err
	}
	var sums [4]float64
	half, quarter := cmps[:len(gens)], cmps[len(gens):]
	for i, cmp := range half {
		q := quarter[i]
		t.Rows = append(t.Rows, []string{
			cmp.Workload, f3(cmp.Normalized(0)), f3(cmp.Normalized(1)),
			f3(q.Normalized(0)), f3(q.Normalized(1)),
		})
		sums[0] += cmp.Normalized(0)
		sums[1] += cmp.Normalized(1)
		sums[2] += q.Normalized(0)
		sums[3] += q.Normalized(1)
	}
	n := float64(len(half))
	t.Rows = append(t.Rows, []string{
		"Average",
		f3(sums[0] / n), f3(sums[1] / n),
		f3(sums[2] / n), f3(sums[3] / n),
	})
	return []Table{t}, nil
}

// accCovTables renders accuracy and coverage tables for a suite.
func accCovTables(titleAcc, titleCov string, cmps []sim.Comparison) (Table, Table) {
	acc := Table{
		Title:  titleAcc,
		Header: []string{"Workload", "Fastswap", "HoPP"},
	}
	cov := Table{
		Title:  titleCov,
		Header: []string{"Workload", "Fastswap", "HoPP total", "HoPP DRAM-hit", "HoPP swapcache"},
	}
	for _, cmp := range cmps {
		fast, _ := cmp.Find("Fastswap")
		hopp, _ := cmp.Find("HoPP")
		acc.Rows = append(acc.Rows, []string{cmp.Workload, f3(fast.PrefetcherAccuracy()), f3(hopp.PrefetcherAccuracy())})
		cov.Rows = append(cov.Rows, []string{
			cmp.Workload, f3(fast.Coverage()), f3(hopp.Coverage()),
			f3(hopp.DRAMHitCoverage()), f3(hopp.SwapCacheHitCoverage()),
		})
	}
	return acc, cov
}

// Fig10 regenerates the non-JVM prefetch accuracy comparison.
func Fig10(ctx context.Context, o Options) ([]Table, error) {
	cmps, err := suiteComparisons(ctx, o, NonJVMWorkloads(o), 0.5)
	if err != nil {
		return nil, err
	}
	acc, _ := accCovTables(
		"Fig. 10: prefetch accuracy, non-JVM (paper: HoPP >90%, +18% over Fastswap)",
		"", cmps)
	return []Table{acc}, nil
}

// Fig11 regenerates the non-JVM coverage comparison with HoPP's split
// into DRAM hits (early PTE injection) and swapcache hits.
func Fig11(ctx context.Context, o Options) ([]Table, error) {
	cmps, err := suiteComparisons(ctx, o, NonJVMWorkloads(o), 0.5)
	if err != nil {
		return nil, err
	}
	_, cov := accCovTables("",
		"Fig. 11: prefetch coverage, non-JVM (paper: HoPP >99% on Quicksort/K-means; DRAM-hit part dominates)",
		cmps)
	return []Table{cov}, nil
}

// Fig12 regenerates the Spark-suite normalized performance comparison.
func Fig12(ctx context.Context, o Options) ([]Table, error) {
	t := Table{
		Title:  "Fig. 12: normalized performance, Spark workloads (local memory = 1/3 of footprint, the paper's 11 of 33 GB)",
		Header: []string{"Workload", "Fastswap", "HoPP"},
		Note:   "paper: HoPP averages 35.7% vs Fastswap 26.4%; biggest win on Spark-KMeans, smallest on GraphX-CC",
	}
	cmps, err := suiteComparisons(ctx, o, SparkWorkloads(o), 1.0/3)
	if err != nil {
		return nil, err
	}
	var fSum, hSum float64
	for _, cmp := range cmps {
		t.Rows = append(t.Rows, []string{cmp.Workload, f3(cmp.Normalized(0)), f3(cmp.Normalized(1))})
		fSum += cmp.Normalized(0)
		hSum += cmp.Normalized(1)
	}
	n := float64(len(cmps))
	t.Rows = append(t.Rows, []string{"Average", f3(fSum / n), f3(hSum / n)})
	return []Table{t}, nil
}

// Fig13 regenerates Spark prefetch accuracy.
func Fig13(ctx context.Context, o Options) ([]Table, error) {
	cmps, err := suiteComparisons(ctx, o, SparkWorkloads(o), 1.0/3)
	if err != nil {
		return nil, err
	}
	acc, _ := accCovTables(
		"Fig. 13: prefetch accuracy, Spark (paper: HoPP +18% over Fastswap on average)",
		"", cmps)
	return []Table{acc}, nil
}

// Fig14 regenerates Spark prefetch coverage.
func Fig14(ctx context.Context, o Options) ([]Table, error) {
	cmps, err := suiteComparisons(ctx, o, SparkWorkloads(o), 1.0/3)
	if err != nil {
		return nil, err
	}
	_, cov := accCovTables("",
		"Fig. 14: prefetch coverage, Spark (paper: lower than non-JVM due to JVM memory management; HoPP +29.1%)",
		cmps)
	return []Table{cov}, nil
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
	pairs := [][2]workload.Generator{
		{workload.NewOMPKMeans(o.scale(2048), 3), workload.NewQuicksort(o.scale(2048))},
		{workload.NewNPBMG(o.scale(1536), 2), workload.NewNPBCG(o.scale(1536), 2)},
		{workload.NewGraphX("PR", o.scale(640)), workload.NewSparkKMeans(o.scale(1536))},
	}
	// App i of a co-run is frozen at the seed sim.New resets it with.
	streams := make([][2]*workload.Frozen, len(pairs))
	for pi, pair := range pairs {
		for i, g := range pair {
			streams[pi][i] = workload.Freeze(g, o.Seed+int64(i)*101)
		}
	}
	// Unit 2p runs pair p under Fastswap, unit 2p+1 under HoPP.
	systems := [2]sim.System{sim.Fastswap(), sim.HoPP()}
	runs, err := each(ctx, 2*len(pairs), func(ctx context.Context, k int) (sim.Metrics, error) {
		cfg := o.simConfig(0.5)
		cfg.System = systems[k%2]
		s := streams[k/2]
		return sim.RunMachine(ctx, cfg, s[0].Replay(), s[1].Replay())
	})
	if err != nil {
		return nil, err
	}
	for pi, pair := range pairs {
		fast, hopp := runs[2*pi], runs[2*pi+1]
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

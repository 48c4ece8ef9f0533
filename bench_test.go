package hopp

// One benchmark per table and figure of the paper's evaluation (§VI).
// Each iteration regenerates the experiment end-to-end at quick scale;
// `go test -bench=. -benchmem` therefore exercises the entire system —
// workload generation, cache simulation, the MC hardware models, the
// kernel substrate, all prefetchers, and the metric pipeline — while
// timing how long each reproduction costs.
//
// Reported custom metrics surface each experiment's headline number so
// a bench run doubles as a regression check on the paper's shapes.

import (
	"context"
	"io"
	"testing"

	"hopp/internal/experiments"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

// benchOpts is the standard bench-scale configuration.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Quick: true}
}

// runExp benchmarks one experiment regenerator.
func runExp(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			t.Fprint(io.Discard)
		}
	}
}

func BenchmarkTable2_HPDThreshold(b *testing.B)   { runExp(b, "table2") }
func BenchmarkTable3_RPTCache(b *testing.B)       { runExp(b, "table3") }
func BenchmarkTable4_Inventory(b *testing.B)      { runExp(b, "table4") }
func BenchmarkTable5_Bandwidth(b *testing.B)      { runExp(b, "table5") }
func BenchmarkFig1_LeapInterference(b *testing.B) { runExp(b, "fig1") }
func BenchmarkFig2_LadderPattern(b *testing.B)    { runExp(b, "fig2") }
func BenchmarkFig3_RipplePattern(b *testing.B)    { runExp(b, "fig3") }
func BenchmarkFig9_NonJVM(b *testing.B)           { runExp(b, "fig9") }
func BenchmarkFig10_AccuracyNonJVM(b *testing.B)  { runExp(b, "fig10") }
func BenchmarkFig11_CoverageNonJVM(b *testing.B)  { runExp(b, "fig11") }
func BenchmarkFig12_Spark(b *testing.B)           { runExp(b, "fig12") }
func BenchmarkFig13_AccuracySpark(b *testing.B)   { runExp(b, "fig13") }
func BenchmarkFig14_CoverageSpark(b *testing.B)   { runExp(b, "fig14") }
func BenchmarkFig15_MultiApp(b *testing.B)        { runExp(b, "fig15") }
func BenchmarkFig16_DepthN(b *testing.B)          { runExp(b, "fig16") }
func BenchmarkFig17_RemoteAccesses(b *testing.B)  { runExp(b, "fig17") }
func BenchmarkFig18_TierAblation(b *testing.B)    { runExp(b, "fig18") }
func BenchmarkFig19_TierAccuracy(b *testing.B)    { runExp(b, "fig19") }
func BenchmarkFig20_TierCoverage(b *testing.B)    { runExp(b, "fig20") }
func BenchmarkFig21_Scatter(b *testing.B)         { runExp(b, "fig21") }
func BenchmarkFig22_Techniques(b *testing.B)      { runExp(b, "fig22") }
func BenchmarkBaselines_Feedback(b *testing.B)    { runExp(b, "baselines") }

// BenchmarkHeadline measures the paper's headline comparison directly —
// OMP-KMeans at 50% local memory under Fastswap vs HoPP — and reports
// the normalized-performance metrics alongside ns/op.
func BenchmarkHeadline(b *testing.B) {
	gen := workload.NewOMPKMeans(768, 3)
	var hoppNorm, fastNorm float64
	for i := 0; i < b.N; i++ {
		cmp, err := sim.Compare(context.Background(), sim.Config{LocalMemoryFrac: 0.5, Seed: 1}, gen, sim.Fastswap(), sim.HoPP())
		if err != nil {
			b.Fatal(err)
		}
		fastNorm = cmp.Normalized(0)
		hoppNorm = cmp.Normalized(1)
	}
	b.ReportMetric(hoppNorm, "hopp-normperf")
	b.ReportMetric(fastNorm, "fastswap-normperf")
}

// BenchmarkMachineThroughput measures raw simulation speed in
// accesses/second — the cost of the whole per-access pipeline.
func BenchmarkMachineThroughput(b *testing.B) {
	gen := workload.NewSequential(1024, 3)
	b.ReportAllocs()
	var accesses uint64
	for i := 0; i < b.N; i++ {
		met, err := sim.Run(context.Background(), sim.Config{System: sim.HoPP(), LocalMemoryFrac: 0.5, Seed: 1}, gen)
		if err != nil {
			b.Fatal(err)
		}
		accesses = met.Accesses
	}
	b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Maccess/s")
}

// BenchmarkMachineThroughputSPP is the same pipeline under the SPP
// feedback scheme: every fault crosses the registry-built prefetcher
// plus the OnPrefetchHit/OnPrefetchEvicted seams, so this is the
// regression guard for the feedback path's zero-alloc budget.
func BenchmarkMachineThroughputSPP(b *testing.B) {
	gen := workload.NewSequential(1024, 3)
	b.ReportAllocs()
	var accesses uint64
	for i := 0; i < b.N; i++ {
		met, err := sim.Run(context.Background(), sim.Config{System: sim.SPP(), LocalMemoryFrac: 0.5, Seed: 1}, gen)
		if err != nil {
			b.Fatal(err)
		}
		accesses = met.Accesses
	}
	b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Maccess/s")
}

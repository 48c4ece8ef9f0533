package experiments

import (
	"slices"

	"hopp/internal/sim"
	"hopp/internal/workload"
)

// catalog is the one name → generator table of the evaluation: the 14
// Table IV applications plus the motivating microbenchmarks, each at
// standard scale and shrunk by Options.scale in quick mode. The
// experiment suites below name their members here, and the service
// serves exactly this table (NewWorkload, WorkloadNames), so a run
// submitted to hoppd replays the workload a figure plotted.
var catalog = map[string]func(o Options) workload.Generator{
	"sequential":  func(o Options) workload.Generator { return workload.NewSequential(o.scale(4096), 3) },
	"intertwined": func(o Options) workload.Generator { return workload.NewIntertwined(o.scale(2048), 0.05) },
	"ladder":      func(o Options) workload.Generator { return workload.NewLadder(o.scale(2048), 3) },
	"ripple":      func(o Options) workload.Generator { return workload.NewRipple(o.scale(2048), 3) },
	"addup":       func(o Options) workload.Generator { return workload.NewAddUp(2, o.scale(2048)) },
	"random": func(o Options) workload.Generator {
		return workload.NewRandom(o.scale(2048), o.scale(8192))
	},

	"omp-kmeans": func(o Options) workload.Generator { return workload.NewOMPKMeans(o.scale(3072), 3) },
	"quicksort":  func(o Options) workload.Generator { return workload.NewQuicksort(o.scale(3072)) },
	// HPL columns stay 96 pages tall so sub-streams remain longer than
	// the STT history window at every scale; quick halves the width.
	"hpl": func(o Options) workload.Generator {
		if o.Quick {
			return workload.NewHPL(16, 96)
		}
		return workload.NewHPL(32, 96)
	},
	"npb-cg": func(o Options) workload.Generator { return workload.NewNPBCG(o.scale(3072), 2) },
	"npb-ft": func(o Options) workload.Generator { return workload.NewNPBFT(o.scale(2048)) },
	"npb-lu": func(o Options) workload.Generator { return workload.NewNPBLU(24, o.scale(3072)/24, 2) },
	"npb-mg": func(o Options) workload.Generator { return workload.NewNPBMG(o.scale(2048), 2) },
	"npb-is": func(o Options) workload.Generator { return workload.NewNPBIS(o.scale(2048)) },

	"graphx-bfs":   func(o Options) workload.Generator { return workload.NewGraphX("BFS", o.scale(768)) },
	"graphx-cc":    func(o Options) workload.Generator { return workload.NewGraphX("CC", o.scale(768)) },
	"graphx-pr":    func(o Options) workload.Generator { return workload.NewGraphX("PR", o.scale(768)) },
	"graphx-lp":    func(o Options) workload.Generator { return workload.NewGraphX("LP", o.scale(768)) },
	"spark-kmeans": func(o Options) workload.Generator { return workload.NewSparkKMeans(o.scale(2048)) },
	"spark-bayes":  func(o Options) workload.Generator { return workload.NewSparkBayes(o.scale(2048)) },
}

// The experiment suites, as catalog names in the order their tables
// list them.
var (
	// nonJVMSuite is Table IV's non-JVM half (§VI-B).
	nonJVMSuite = []string{"omp-kmeans", "quicksort", "hpl", "npb-cg", "npb-ft", "npb-lu", "npb-mg", "npb-is"}
	// sparkSuite is Table IV's Spark half.
	sparkSuite = []string{"graphx-bfs", "graphx-cc", "graphx-pr", "graphx-lp", "spark-kmeans", "spark-bayes"}
	// tableIVSuite is all 14 applications of Table IV.
	tableIVSuite = slices.Concat(nonJVMSuite, sparkSuite)
	// fig16Suite is the NPB-centred suite of Figs. 16–17.
	fig16Suite = []string{"npb-cg", "npb-ft", "npb-lu", "npb-mg", "npb-is", "omp-kmeans", "graphx-bfs", "graphx-cc"}
	// tierSuite holds the pattern-rich programs where LSP and RSP matter
	// (§VI-D singles out HPL and NPB-MG).
	tierSuite = []string{"hpl", "npb-mg", "npb-lu", "ripple", "ladder"}
)

// NewWorkload builds the catalog workload name at standard (or quick)
// scale.
func NewWorkload(name string, quick bool) (workload.Generator, bool) {
	f, ok := catalog[name]
	if !ok {
		return nil, false
	}
	return f(Options{Quick: quick}), true
}

// WorkloadNames returns every catalog workload name, sorted.
func WorkloadNames() []string { return sortedKeys(catalog) }

// gens builds the named catalog workloads at o's scale.
func (o Options) gens(names ...string) []workload.Generator {
	out := make([]workload.Generator, len(names))
	for i, name := range names {
		out[i] = catalog[name](o)
	}
	return out
}

// scale shrinks a page count ~4x under Quick, with a floor of 64 pages.
func (o Options) scale(n int) int {
	if o.Quick {
		n /= 4
		if n < 64 {
			n = 64
		}
	}
	return n
}

// SimConfig is the machine config of every run at o's scale: local
// memory at frac of the footprint, o.Seed for randomness, no System
// yet. Quick mode shrinks the cache hierarchy along with the footprints
// so the paper's footprint ≫ LLC regime is preserved at every scale.
func (o Options) SimConfig(frac float64) sim.Config {
	cfg := sim.Config{LocalMemoryFrac: frac, Seed: o.Seed}
	if o.Quick {
		cfg.L2Bytes = 64 << 10
		cfg.LLCBytes = 512 << 10
	}
	return cfg
}

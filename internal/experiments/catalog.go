package experiments

import (
	"slices"
	"sync"

	"hopp/internal/sim"
	"hopp/internal/workload"
)

// catalog is the one name → generator table of the evaluation: the 14
// Table IV applications plus the motivating microbenchmarks, each at
// standard scale and shrunk by Options.scale in quick mode. The
// experiment suites below name their members here, and the service
// serves exactly this table (NewWorkload, WorkloadNames), so a run
// submitted to hoppd replays the workload a figure plotted.
var catalog = map[string]func(o Options) *workload.Base{
	"sequential":  func(o Options) *workload.Base { return workload.NewSequential(o.scale(4096), 3) },
	"intertwined": func(o Options) *workload.Base { return workload.NewIntertwined(o.scale(2048), 0.05) },
	"ladder":      func(o Options) *workload.Base { return workload.NewLadder(o.scale(2048), 3) },
	"ripple":      func(o Options) *workload.Base { return workload.NewRipple(o.scale(2048), 3) },
	"addup":       func(o Options) *workload.Base { return workload.NewAddUp(2, o.scale(2048)) },
	"random": func(o Options) *workload.Base {
		return workload.NewRandom(o.scale(2048), o.scale(8192))
	},

	"omp-kmeans": func(o Options) *workload.Base { return workload.NewOMPKMeans(o.scale(3072), 3) },
	"quicksort":  func(o Options) *workload.Base { return workload.NewQuicksort(o.scale(3072)) },
	// HPL columns stay 96 pages tall so sub-streams remain longer than
	// the STT history window at every scale; quick halves the width.
	"hpl": func(o Options) *workload.Base {
		if o.Quick {
			return workload.NewHPL(16, 96)
		}
		return workload.NewHPL(32, 96)
	},
	"npb-cg": func(o Options) *workload.Base { return workload.NewNPBCG(o.scale(3072), 2) },
	"npb-ft": func(o Options) *workload.Base { return workload.NewNPBFT(o.scale(2048)) },
	"npb-lu": func(o Options) *workload.Base { return workload.NewNPBLU(24, o.scale(3072)/24, 2) },
	"npb-mg": func(o Options) *workload.Base { return workload.NewNPBMG(o.scale(2048), 2) },
	"npb-is": func(o Options) *workload.Base { return workload.NewNPBIS(o.scale(2048)) },

	"graphx-bfs":   func(o Options) *workload.Base { return workload.NewGraphX("BFS", o.scale(768)) },
	"graphx-cc":    func(o Options) *workload.Base { return workload.NewGraphX("CC", o.scale(768)) },
	"graphx-pr":    func(o Options) *workload.Base { return workload.NewGraphX("PR", o.scale(768)) },
	"graphx-lp":    func(o Options) *workload.Base { return workload.NewGraphX("LP", o.scale(768)) },
	"spark-kmeans": func(o Options) *workload.Base { return workload.NewSparkKMeans(o.scale(2048)) },
	"spark-bayes":  func(o Options) *workload.Base { return workload.NewSparkBayes(o.scale(2048)) },
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

// NewWorkload returns a fresh generator of the catalog workload name at
// standard (or quick) scale.
func NewWorkload(name string, quick bool) (*workload.Base, bool) {
	return Options{Quick: quick}.player(name)
}

// WorkloadNames returns every catalog workload name, sorted.
func WorkloadNames() []string { return sortedKeys(catalog) }

// gens returns fresh generators of the named catalog workloads at o's
// scale.
func (o Options) gens(names ...string) []*workload.Base {
	out := make([]*workload.Base, len(names))
	for i, name := range names {
		out[i], _ = o.player(name)
	}
	return out
}

// prototypes holds one generator per catalog workload and scale, built
// on its first request. Every generator the catalog hands out is a
// Player of it, so a process counts each workload's seed-0 footprint
// once, however many runs at other seeds it starts. The sweep's stream
// cache (internal/service) still shares whole page programs, which
// this does not: a page program is far larger than its spec, and
// holding one for the life of the process would need a rule for when to
// drop it.
var (
	prototypesMu sync.Mutex
	prototypes   = map[prototypeKey]*workload.Base{}
)

type prototypeKey struct {
	name  string
	quick bool
}

// player returns a fresh generator of the catalog workload name at o's
// scale, minted from its prototype.
func (o Options) player(name string) (*workload.Base, bool) {
	build, ok := catalog[name]
	if !ok {
		return nil, false
	}
	k := prototypeKey{name, o.Quick}
	prototypesMu.Lock()
	proto := prototypes[k]
	if proto == nil {
		proto = build(o)
		prototypes[k] = proto
	}
	prototypesMu.Unlock()
	return proto.Player(), true
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

// The quick-scale cache hierarchy: SimConfig's L2 and LLC sizes under
// Quick, and the hierarchy traceFillMisses replays at every scale.
const (
	quickL2Bytes  = 64 << 10
	quickLLCBytes = 512 << 10
)

// SimConfig is the machine config of every run at o's scale: local
// memory at frac of the footprint, o.Seed for randomness, no System
// yet. Quick mode shrinks the cache hierarchy along with the footprints
// so the paper's footprint ≫ LLC regime is preserved at every scale.
func (o Options) SimConfig(frac float64) sim.Config {
	cfg := sim.Config{LocalMemoryFrac: frac, Seed: o.Seed}
	if o.Quick {
		cfg.L2Bytes = quickL2Bytes
		cfg.LLCBytes = quickLLCBytes
	}
	return cfg
}

// Package hopp is a full-system reproduction of HoPP — "HoPP:
// Hardware-Software Co-Designed Page Prefetching for Disaggregated
// Memory" (HPCA 2023) — as a deterministic discrete-event simulation.
//
// The package is the public facade over the implementation packages:
//
//   - the memory-controller hardware (hot page detection, reverse page
//     table cache) in internal/hpd, internal/rpt, internal/mc;
//   - the kernel substrate (page tables, swapcache, cgroups, reclaim,
//     the §II-A cost model) in internal/vmm;
//   - the RDMA fabric and remote memory node in internal/rdma;
//   - HoPP's software stack (stream training table, SSP/LSP/RSP tiers,
//     policy engine, execution engine) in internal/core;
//   - the compared demand-path prefetchers (Fastswap, Leap, Depth-N,
//     VMA, SPP, Chimera, HHP) and their self-registering catalog in
//     internal/prefetch;
//   - Table IV workload generators in internal/workload;
//   - the machine that ties them together in internal/sim; and
//   - regenerators for every table and figure of §VI in
//     internal/experiments.
//
// # Quick start
//
// Every function that runs simulations takes its context first:
//
//	ctx := context.Background()
//	gen := hopp.Workloads.OMPKMeans(4096, 3)
//	cmp, err := hopp.Compare(ctx, gen, 0.5, 1, hopp.Fastswap(), hopp.HoPP())
//	if err != nil { ... }
//	fmt.Println(cmp.Results[1].Coverage())   // HoPP's prefetch coverage
//	fmt.Println(cmp.Normalized(1))           // CT_local / CT_HoPP
package hopp

import (
	"context"
	"io"
	"net/http"

	"hopp/internal/core"
	"hopp/internal/experiments"
	"hopp/internal/service"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

// Re-exported simulation types. See the internal packages for full
// documentation.
type (
	// System describes one remote-memory system under test.
	System = sim.System
	// Config parameterizes a Machine.
	Config = sim.Config
	// Machine is one simulated compute node plus its remote memory node.
	Machine = sim.Machine
	// Metrics aggregates one run's outcomes (§VI-A definitions).
	Metrics = sim.Metrics
	// Comparison holds one workload's results across systems.
	Comparison = sim.Comparison
	// Workload is a memory access pattern generator: one of the
	// Workloads constructors, which plays a page program built once per
	// seed and reports its seed-0 footprint.
	Workload = *workload.Base
	// Params configures HoPP's software stack (STT, tiers, policy).
	Params = core.Params
	// PolicyParams are the policy engine knobs (§III-E).
	PolicyParams = core.PolicyParams
)

// Systems under test.
var (
	// Fastswap is the readahead-based kernel baseline [7].
	Fastswap = sim.Fastswap
	// Leap is majority-stride prefetching [38].
	Leap = sim.Leap
	// DepthN is fixed-depth early-PTE-injection prefetching [9].
	DepthN = sim.DepthN
	// VMA is Linux 5.4's VMA-clipped readahead.
	VMA = sim.VMA
	// SPP is signature-path prefetching with feedback-trained confidence.
	SPP = sim.SPP
	// Chimera is the accuracy-arbitrated stride/spatial/history hybrid.
	Chimera = sim.Chimera
	// HHP is offset pattern-table prefetching keyed by region triggers.
	HHP = sim.HHP
	// NoPrefetch is the demand-only baseline.
	NoPrefetch = sim.NoPrefetch
	// HoPP is the full co-designed system with default parameters.
	HoPP = sim.HoPP
	// HoPPWith is HoPP with explicit core parameters.
	HoPPWith = sim.HoPPWith
	// DemandSystem resolves any prefetch-registry spec — "spp",
	// "depth-16", "chimera?degree=4" — to a runnable demand-path system;
	// the named constructors above are fixed points of it.
	DemandSystem = sim.DemandSystem
)

// DefaultParams returns the paper's HoPP configuration (§III).
func DefaultParams() Params { return core.DefaultParams() }

// NewMachine builds a machine running the given workloads under
// cfg.System.
func NewMachine(cfg Config, gens ...Workload) (*Machine, error) {
	apps := make([]workload.Generator, len(gens))
	for i, g := range gens {
		apps[i] = g
	}
	return sim.New(cfg, apps...)
}

// Run executes one workload under one system with the cgroup limited to
// frac of the workload footprint (0 = all local). It runs as one of at
// most GOMAXPROCS machines process-wide; when ctx is done the
// simulation aborts at its next poll and returns ctx.Err() alongside
// partial metrics.
func Run(ctx context.Context, sys System, gen Workload, frac float64, seed int64) (Metrics, error) {
	return sim.Run(ctx, Config{System: sys, LocalMemoryFrac: frac, Seed: seed}, gen)
}

// Compare runs the workload locally and under every given system. The
// runs share one frozen copy of the workload's stream and execute
// concurrently, at most GOMAXPROCS machines at a time process-wide; the
// first run to observe a done ctx fails the comparison with ctx.Err().
func Compare(ctx context.Context, gen Workload, frac float64, seed int64, systems ...System) (Comparison, error) {
	return sim.Compare(ctx, Config{LocalMemoryFrac: frac, Seed: seed}, gen, systems...)
}

// workloadSet groups the workload constructors under one name.
type workloadSet struct{}

// Workloads exposes every access-pattern generator of the evaluation.
var Workloads workloadSet

// Sequential scans a region `loops` times.
func (workloadSet) Sequential(pages, loops int) Workload { return workload.NewSequential(pages, loops) }

// Strided scans a region with a fixed page stride.
func (workloadSet) Strided(pages int, stride int64, loops int) Workload {
	return workload.NewStrided(pages, stride, loops)
}

// Intertwined is the Fig. 1 two-stream interference pattern.
func (workloadSet) Intertwined(pagesPerStream int, interferenceFrac float64) Workload {
	return workload.NewIntertwined(pagesPerStream, interferenceFrac)
}

// Ladder is the Fig. 2 pattern.
func (workloadSet) Ladder(treads, loops int) Workload { return workload.NewLadder(treads, loops) }

// Ripple is the Fig. 3 pattern.
func (workloadSet) Ripple(pages, loops int) Workload { return workload.NewRipple(pages, loops) }

// AddUp is the §VI-E two-thread microbenchmark.
func (workloadSet) AddUp(threads, pagesPerThread int) Workload {
	return workload.NewAddUp(threads, pagesPerThread)
}

// OMPKMeans is the C/OpenMP K-means of Table IV.
func (workloadSet) OMPKMeans(pages, iterations int) Workload {
	return workload.NewOMPKMeans(pages, iterations)
}

// Quicksort is Table IV's quicksort.
func (workloadSet) Quicksort(pages int) Workload { return workload.NewQuicksort(pages) }

// HPL is High Performance Linpack.
func (workloadSet) HPL(cols, colPages int) Workload { return workload.NewHPL(cols, colPages) }

// NPBCG is the NAS conjugate-gradient kernel.
func (workloadSet) NPBCG(pages, iterations int) Workload { return workload.NewNPBCG(pages, iterations) }

// NPBFT is the NAS FFT kernel.
func (workloadSet) NPBFT(pages int) Workload { return workload.NewNPBFT(pages) }

// NPBLU is the NAS LU solver.
func (workloadSet) NPBLU(planes, planePages, iterations int) Workload {
	return workload.NewNPBLU(planes, planePages, iterations)
}

// NPBMG is the NAS multigrid kernel.
func (workloadSet) NPBMG(pages, cycles int) Workload { return workload.NewNPBMG(pages, cycles) }

// NPBIS is the NAS integer sort.
func (workloadSet) NPBIS(pages int) Workload { return workload.NewNPBIS(pages) }

// GraphX is a GraphX-on-Spark algorithm: "BFS", "CC", "PR" or "LP".
func (workloadSet) GraphX(algo string, edgePages int) Workload {
	return workload.NewGraphX(algo, edgePages)
}

// SparkKMeans is K-means on Spark.
func (workloadSet) SparkKMeans(pages int) Workload { return workload.NewSparkKMeans(pages) }

// SparkBayes is naive Bayes on Spark.
func (workloadSet) SparkBayes(pages int) Workload { return workload.NewSparkBayes(pages) }

// Random is the unprefetchable floor.
func (workloadSet) Random(pages, touches int) Workload { return workload.NewRandom(pages, touches) }

// Experiment regenerates one table or figure of the paper.
type Experiment = experiments.Experiment

// ExperimentOptions tunes experiment scale.
type ExperimentOptions = experiments.Options

// Experiments returns every table/figure regenerator in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks an experiment up ("table2" … "fig22").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// RunExperiment executes one experiment and renders its tables to w.
// The first simulation to observe a done ctx fails the experiment with
// an error wrapping ctx.Err().
func RunExperiment(ctx context.Context, id string, opts ExperimentOptions, w io.Writer) error {
	e, ok := experiments.ByID(id)
	if !ok {
		return &UnknownExperimentError{ID: id}
	}
	tables, err := e.Run(ctx, opts)
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Fprint(w)
	}
	return nil
}

// UnknownExperimentError reports a bad experiment ID.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "hopp: unknown experiment " + e.ID + " (run `hoppexp -list`)"
}

// Simulation-as-a-service types, re-exported from internal/service.
// An Engine is the long-lived substrate behind cmd/hoppd: every
// submission — a workload × system simulation, an experiment
// regeneration, a sweep grid or an HMTT trace ingest session — is one
// Job in a shared lifecycle, queued into a bounded worker pool, indexed
// by its canonicalized request so identical submissions share one
// result, and accounted per kind in the runtime counters.
type (
	// Engine serves jobs: Submit, SubmitExperiment, SubmitSweep,
	// OpenIngest, Status, Wait, Cancel, Metrics, Shutdown.
	Engine = service.Engine
	// EngineOptions sizes the engine's pool, queue, and retention — which
	// also bounds how long a result serves identical submissions.
	EngineOptions = service.Options
	// RunRequest is one workload × system submission.
	RunRequest = service.RunRequest
	// ServiceExperimentRequest is one experiment-regeneration submission.
	ServiceExperimentRequest = service.ExperimentRequest
	// RunStatus is a job's externally visible snapshot.
	RunStatus = service.RunStatus
	// JobKind tags a job "sim", "experiment", "sweep" or "ingest".
	JobKind = service.JobKind
	// JobState is a job's lifecycle state.
	JobState = service.JobState
	// JobCounters are one kind's lifecycle counters in EngineMetrics.
	JobCounters = service.JobCounters
	// EngineMetrics is the /metrics counter snapshot.
	EngineMetrics = service.MetricsSnapshot
)

// NewEngine starts a simulation service engine; callers must Close it.
func NewEngine(opts EngineOptions) *Engine { return service.NewEngine(opts) }

// NewServiceHandler exposes an engine over HTTP (the cmd/hoppd API).
func NewServiceHandler(e *Engine) http.Handler { return service.NewHandler(e) }

// ServiceWorkloads lists the run-catalog workload names an Engine (and
// cmd/hoppsim) accepts — the workloads the experiments plot; ServiceSystems
// lists the system names.
func ServiceWorkloads() []string { return service.WorkloadNames() }

// ServiceSystems lists the run-catalog system names.
func ServiceSystems() []string { return service.SystemNames() }

// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each experiment is a pure function of an Options
// value; results come back as printable Tables whose rows mirror the
// series the paper plots. The per-experiment index lives in DESIGN.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"hopp/internal/sim"
	"hopp/internal/workload"
)

// Options tunes experiment scale. Cancellation is not an option: every
// Experiment.Run takes its context as an explicit first parameter
// (storing a context in a struct is exactly the construct hopplint's
// ctxfirst analyzer forbids in this package).
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Quick shrinks workloads ~4x for benches and CI.
	Quick bool
	// Progress, when non-nil, is invoked once after each simulation unit
	// an experiment completes (one per runOne and one per compareAll, the
	// choke points experiments drive their machines through). Units run
	// concurrently, so the callback may be invoked concurrently from
	// simulation goroutines and must be safe for that. It is an
	// observability seam for the service layer's job lifecycle —
	// callbacks receive no data and must not influence results, so
	// determinism is untouched: equal (Seed, Quick) still yield equal
	// tables with or without it.
	Progress func()
}

// tick reports one completed simulation unit to the Progress seam.
func (o Options) tick() {
	if o.Progress != nil {
		o.Progress()
	}
}

// Table is one printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Note carries the paper-expectation commentary printed under the table.
	Note string
}

// Fprint renders the table with aligned columns.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(w, "-- %s\n", t.Note)
	}
	fmt.Fprintln(w)
}

// Experiment is one regenerable table/figure.
type Experiment struct {
	// ID is the flag value, e.g. "table2", "fig9".
	ID string
	// Title describes what the paper shows there.
	Title string
	// Run executes the experiment; ctx cancels every simulation it
	// drives, and the first aborted run fails it with ctx.Err().
	Run func(ctx context.Context, o Options) ([]Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"breakdown", "§II-A swap path cost breakdown (model vs measured)", Breakdown},
		{"table2", "Hot pages / memory accesses vs HPD threshold N", Table2},
		{"table3", "RPT cache hit rate vs cache size", Table3},
		{"table4", "Workload inventory (scaled)", Table4},
		{"table5", "HPD and RPT bandwidth overhead", Table5},
		{"fig1", "Leap's majority prefetcher vs interleaved streams", Fig1},
		{"fig2", "Ladder stream pattern and LSP identification", Fig2},
		{"fig3", "Ripple stream pattern and RSP identification", Fig3},
		{"fig9", "Normalized performance, non-JVM, 50%/25% local memory", Fig9},
		{"fig10", "Prefetch accuracy, non-JVM workloads", Fig10},
		{"fig11", "Prefetch coverage (swapcache vs DRAM hit), non-JVM", Fig11},
		{"fig12", "Normalized performance, Spark workloads", Fig12},
		{"fig13", "Prefetch accuracy, Spark workloads", Fig13},
		{"fig14", "Prefetch coverage, Spark workloads", Fig14},
		{"fig15", "Speedup with multiple applications running together", Fig15},
		{"fig16", "Depth-16/32 vs Fastswap vs HoPP normalized performance", Fig16},
		{"fig17", "Normalized remote accesses of the four systems", Fig17},
		{"fig18", "Speedup as prefetch tiers are added (SSP → +LSP → +RSP)", Fig18},
		{"fig19", "Per-tier prefetch accuracy", Fig19},
		{"fig20", "Per-tier coverage contribution", Fig20},
		{"fig21", "Accuracy/coverage vs normalized performance", Fig21},
		{"fig22", "Technique ablation on the two-thread add-up microbenchmark", Fig22},
		{"baselines", "SPP/Chimera/HHP feedback baselines vs Fastswap and HoPP", Baselines},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// freeze snapshots each workload's access stream once at o.Seed. An
// experiment freezes its workloads up front and hands every simulation
// of a workload its own Replay of the one stream, so the page program
// is built once per workload (a few milliseconds for a whole quick
// suite), not once per run.
func (o Options) freeze(gens ...workload.Generator) []*workload.Frozen {
	streams := make([]*workload.Frozen, len(gens))
	for i, g := range gens {
		streams[i] = workload.Freeze(g, o.Seed)
	}
	return streams
}

// each runs n independent simulation units concurrently through
// sim.Fan and returns their results in index order, so tables render
// exactly as a sequential loop over the units would. The
// lowest-index error wins.
func each[T any](ctx context.Context, n int, unit func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := sim.Fan(ctx, n, func(ctx context.Context, i int) error {
		var err error
		out[i], err = unit(ctx, i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// compareAll runs one workload under several systems plus local, all
// concurrently (see sim.Compare).
func (o Options) compareAll(ctx context.Context, gen workload.Generator, frac float64, systems ...sim.System) (sim.Comparison, error) {
	cmp, err := sim.Compare(ctx, o.SimConfig(frac), gen, systems...)
	if err == nil {
		o.tick()
	}
	return cmp, err
}

// runOne runs one workload under one system, holding one of the
// process-wide machine slots (see sim.Run).
func (o Options) runOne(ctx context.Context, sys sim.System, gen workload.Generator, frac float64) (sim.Metrics, error) {
	cfg := o.SimConfig(frac)
	cfg.System = sys
	met, err := sim.Run(ctx, cfg, gen)
	if err == nil {
		o.tick()
	}
	return met, err
}

// runGrid freezes gens and runs every workload under every system at
// frac, one runOne unit per pair, all concurrently. grid[i][j] is
// gens[i] under systems[j]; a failure is reported as "id workload/system".
func (o Options) runGrid(ctx context.Context, id string, gens []workload.Generator, frac float64, systems ...sim.System) ([][]sim.Metrics, error) {
	streams := o.freeze(gens...)
	runs, err := each(ctx, len(streams)*len(systems), func(ctx context.Context, k int) (sim.Metrics, error) {
		s, sys := streams[k/len(systems)], systems[k%len(systems)]
		met, err := o.runOne(ctx, sys, s.Replay(), frac)
		if err != nil {
			return met, fmt.Errorf("%s %s/%s: %w", id, s.Name(), sys.Name, err)
		}
		return met, nil
	})
	if err != nil {
		return nil, err
	}
	grid := make([][]sim.Metrics, len(streams))
	for i := range grid {
		grid[i] = runs[i*len(systems) : (i+1)*len(systems)]
	}
	return grid, nil
}

// sortedKeys returns map keys in stable order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //hopplint:sorted collected keys are sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package experiments

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func quick() Options { return Options{Seed: 1, Quick: true} }

// cell parses a table cell as a float, stripping a trailing %.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func runExp(t *testing.T, id string) []Table {
	t.Helper()
	return runExpWith(t, id, quick())
}

func runExpWith(t *testing.T, id string, opts Options) []Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	tables, err := e.Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s returned no tables", id)
	}
	return tables
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"breakdown",
		"table2", "table3", "table4", "table5",
		"fig1", "fig2", "fig3", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"fig21", "fig22",
		"baselines",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("%s incomplete", e.ID)
		}
	}
}

func TestTablePrinting(t *testing.T) {
	tab := Table{
		Title:  "T",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"xxxxx", "y"}},
		Note:   "note",
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "xxxxx", "bbbb", "-- note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

// Table II shape: the hot-page ratio must never rise with N, and must
// strictly fall for at least one workload.
func TestTable2Shape(t *testing.T) {
	tab := runExp(t, "table2")[0]
	fell := false
	for _, row := range tab.Rows {
		for i := 2; i < len(row); i++ {
			a, b := cell(t, row[i-1]), cell(t, row[i])
			if b > a+0.01 {
				t.Fatalf("%s: ratio rose from %v to %v", row[0], row[i-1], row[i])
			}
			if b < a-0.01 {
				fell = true
			}
		}
	}
	if !fell {
		t.Fatal("hot-page ratio never fell with N")
	}
}

// Table III shape: hit rate non-decreasing in size; ≥0.99 at 64KB.
func TestTable3Shape(t *testing.T) {
	tab := runExp(t, "table3")[0]
	for _, row := range tab.Rows {
		for i := 2; i < len(row); i++ {
			if cell(t, row[i]) < cell(t, row[i-1])-0.02 {
				t.Fatalf("%s: hit rate fell: %v", row[0], row)
			}
		}
		if last := cell(t, row[len(row)-1]); last < 0.99 {
			t.Fatalf("%s: 64KB hit rate %v < 0.99", row[0], last)
		}
	}
}

// Table V shape: HPD bandwidth small but nonzero; RPT far smaller.
func TestTable5Shape(t *testing.T) {
	tab := runExp(t, "table5")[0]
	for _, row := range tab.Rows {
		hpdBW, rptBW := cell(t, row[1]), cell(t, row[2])
		if hpdBW <= 0 || hpdBW > 1.0 {
			t.Fatalf("%s: HPD bandwidth %v%% out of (0,1]", row[0], hpdBW)
		}
		if rptBW > hpdBW {
			t.Fatalf("%s: RPT bandwidth above HPD", row[0])
		}
	}
}

// Fig. 1 shape: HoPP's coverage beats Fastswap's beats Leap's on the
// intertwined microbenchmark.
func TestFig1Shape(t *testing.T) {
	tab := runExp(t, "fig1")[0]
	cov := map[string]float64{}
	for _, row := range tab.Rows {
		cov[row[0]] = cell(t, row[2])
	}
	if !(cov["HoPP"] > cov["Fastswap"] && cov["Fastswap"] > cov["Leap"]) {
		t.Fatalf("coverage ordering wrong: %v", cov)
	}
}

// Fig. 9 shape: HoPP ≥ Fastswap on every row, at both memory limits,
// and the averages degrade as memory shrinks.
func TestFig9Shape(t *testing.T) {
	tab := runExp(t, "fig9")[0]
	for _, row := range tab.Rows {
		f50, h50 := cell(t, row[1]), cell(t, row[2])
		f25, h25 := cell(t, row[3]), cell(t, row[4])
		if h50 < f50-0.02 || h25 < f25-0.02 {
			t.Fatalf("%s: HoPP below Fastswap: %v", row[0], row)
		}
		if row[0] == "Average" {
			if f25 > f50 || h25 > h50 {
				t.Fatalf("averages improved with less memory: %v", row)
			}
		}
	}
}

// Fig. 10 shape: HoPP's prefetcher accuracy ≥ 0.9 everywhere.
func TestFig10Shape(t *testing.T) {
	tab := runExp(t, "fig10")[0]
	for _, row := range tab.Rows {
		if acc := cell(t, row[2]); acc < 0.9 {
			t.Fatalf("%s: HoPP accuracy %v < 0.9", row[0], acc)
		}
	}
}

// Fig. 11 shape: HoPP coverage beats Fastswap's on average and the
// DRAM-hit share dominates the swapcache share overall.
func TestFig11Shape(t *testing.T) {
	tab := runExp(t, "fig11")[0]
	var fast, hopp, dram, swapc float64
	for _, row := range tab.Rows {
		fast += cell(t, row[1])
		hopp += cell(t, row[2])
		dram += cell(t, row[3])
		swapc += cell(t, row[4])
	}
	if hopp <= fast {
		t.Fatalf("HoPP total coverage %v not above Fastswap %v", hopp, fast)
	}
	if dram <= swapc {
		t.Fatalf("DRAM-hit share %v not dominant over swapcache %v", dram, swapc)
	}
}

// Fig. 12 shape: HoPP ≥ Fastswap on the Spark average.
func TestFig12Shape(t *testing.T) {
	tab := runExp(t, "fig12")[0]
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "Average" {
		t.Fatal("missing Average row")
	}
	if cell(t, last[2]) <= cell(t, last[1]) {
		t.Fatalf("Spark average: HoPP %v not above Fastswap %v", last[2], last[1])
	}
}

// Fig. 13 shape: HoPP prefetcher accuracy ≥ 0.9 on Spark too, and above
// Fastswap's on every row.
func TestFig13Shape(t *testing.T) {
	tab := runExp(t, "fig13")[0]
	for _, row := range tab.Rows {
		f, h := cell(t, row[1]), cell(t, row[2])
		if h < 0.9 {
			t.Fatalf("%s: HoPP accuracy %v < 0.9", row[0], h)
		}
		if h < f {
			t.Fatalf("%s: HoPP accuracy below Fastswap", row[0])
		}
	}
}

// Fig. 14 shape: HoPP's total coverage is above Fastswap's on every
// Spark row. The claim holds at full scale, where EXPERIMENTS.md's
// numbers are made, but not at quick scale, whose short streams leave
// HoPP below Fastswap on three or four rows at seeds 1–3 — a finding
// EXPERIMENTS.md records — so this test alone runs at full scale
// (about 0.4 s).
func TestFig14Shape(t *testing.T) {
	tab := runExpWith(t, "fig14", Options{Seed: 1})[0]
	for _, row := range tab.Rows {
		if f, h := cell(t, row[1]), cell(t, row[2]); h <= f {
			t.Errorf("%s: HoPP coverage %v not above Fastswap %v", row[0], h, f)
		}
	}
}

// Fig. 15 shape: HoPP speeds up both tenants of every co-running pair.
func TestFig15Shape(t *testing.T) {
	tab := runExp(t, "fig15")[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows, want 3 pairs of 2 tenants", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if sp := cell(t, row[4]); sp <= 0 {
			t.Errorf("%s %s: speedup %v%%, want positive", row[0], row[1], sp)
		}
	}
}

// Fig. 17 shape: on NPB-MG both Depth-N columns leave more remote
// accesses than Fastswap and HoPP.
func TestFig17Shape(t *testing.T) {
	tab := runExp(t, "fig17")[0]
	for _, row := range tab.Rows {
		if row[0] != "NPB-MG" {
			continue
		}
		d16, d32 := cell(t, row[1]), cell(t, row[2])
		fast, hopp := cell(t, row[3]), cell(t, row[4])
		if least := min(d16, d32); least <= fast || least <= hopp {
			t.Fatalf("NPB-MG remote accesses: Depth-16 %v, Depth-32 %v not above Fastswap %v and HoPP %v", d16, d32, fast, hopp)
		}
		return
	}
	t.Fatal("no NPB-MG row")
}

// Fig. 16 shape: HoPP has the best average; Depth-N loses to Fastswap
// somewhere (the paper's NPB-MG effect).
func TestFig16Shape(t *testing.T) {
	tab := runExp(t, "fig16")[0]
	var sums [4]float64
	depthLosesSomewhere := false
	for _, row := range tab.Rows {
		for i := 0; i < 4; i++ {
			sums[i] += cell(t, row[i+1])
		}
		if cell(t, row[1]) < cell(t, row[3]) || cell(t, row[2]) < cell(t, row[3]) {
			depthLosesSomewhere = true
		}
	}
	best := 3 // HoPP column
	for i := 0; i < 3; i++ {
		if sums[i] > sums[best] {
			best = i
		}
	}
	if best != 3 {
		t.Fatalf("HoPP is not the best of four on average: %v", sums)
	}
	if !depthLosesSomewhere {
		t.Fatal("Depth-N never lost to Fastswap; pollution effect missing")
	}
}

// Fig. 18 shape: adding tiers never slows a workload down materially,
// and helps somewhere.
func TestFig18Shape(t *testing.T) {
	tab := runExp(t, "fig18")[0]
	helped := false
	for _, row := range tab.Rows {
		ssp, all := cell(t, row[1]), cell(t, row[3])
		if all < ssp-1.0 {
			t.Fatalf("%s: full cascade slower than SSP alone: %v", row[0], row)
		}
		if all > ssp+1.0 {
			helped = true
		}
	}
	if !helped {
		t.Fatal("LSP/RSP never helped")
	}
}

// Fig. 19 shape: every reported tier accuracy ≥ 0.9.
func TestFig19Shape(t *testing.T) {
	tab := runExp(t, "fig19")[0]
	for _, row := range tab.Rows {
		for _, c := range row[1:] {
			if c == "-" {
				continue
			}
			if cell(t, c) < 0.9 {
				t.Fatalf("%s: tier accuracy %v < 0.9", row[0], c)
			}
		}
	}
}

// Fig. 20 shape, at seeds 1–3: SSP takes the largest share on HPL,
// NPB-MG and NPB-LU; LSP contributes on HPL and RSP on NPB-MG.
func TestFig20Shape(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tab := runExpWith(t, "fig20", Options{Seed: seed, Quick: true})[0]
		share := map[string][3]float64{} // workload → SSP, LSP, RSP
		for _, row := range tab.Rows {
			share[row[0]] = [3]float64{cell(t, row[1]), cell(t, row[2]), cell(t, row[3])}
		}
		for _, w := range []string{"HPL", "NPB-MG", "NPB-LU"} {
			s, ok := share[w]
			if !ok {
				t.Fatalf("seed %d: no %s row", seed, w)
			}
			if s[0] <= s[1] || s[0] <= s[2] {
				t.Errorf("seed %d %s: SSP %v not the largest tier (LSP %v, RSP %v)", seed, w, s[0], s[1], s[2])
			}
		}
		if lsp := share["HPL"][1]; lsp <= 0 {
			t.Errorf("seed %d: LSP contributes %v on HPL", seed, lsp)
		}
		if rsp := share["NPB-MG"][2]; rsp <= 0 {
			t.Errorf("seed %d: RSP contributes %v on NPB-MG", seed, rsp)
		}
	}
}

// Fig. 21 shape, at seeds 1–3: where HoPP and Fastswap reach the same
// coverage (within 0.01), HoPP still performs better, and every point
// with accuracy and coverage ≥ 0.95 reaches normalized performance
// ≥ 0.95. Each claim must have at least one point to speak about.
func TestFig21Shape(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tab := runExpWith(t, "fig21", Options{Seed: seed, Quick: true})[0]
		fastswap := map[string][2]float64{} // workload → coverage, NormPerf
		for _, row := range tab.Rows {
			if row[1] == "Fastswap" {
				fastswap[row[0]] = [2]float64{cell(t, row[3]), cell(t, row[4])}
			}
		}
		equal, nearPerfect := 0, 0
		for _, row := range tab.Rows {
			acc, cov, perf := cell(t, row[2]), cell(t, row[3]), cell(t, row[4])
			if acc >= 0.95 && cov >= 0.95 {
				nearPerfect++
				if perf < 0.95 {
					t.Errorf("seed %d %s %s: accuracy %v, coverage %v but NormPerf %v < 0.95", seed, row[0], row[1], acc, cov, perf)
				}
			}
			if row[1] != "HoPP" {
				continue
			}
			f, ok := fastswap[row[0]]
			if !ok {
				t.Fatalf("seed %d: no Fastswap point for %s", seed, row[0])
			}
			if math.Abs(cov-f[0]) > 0.01+1e-9 {
				continue
			}
			equal++
			if perf <= f[1] {
				t.Errorf("seed %d %s: equal coverage (%v vs %v) but HoPP NormPerf %v not above Fastswap %v", seed, row[0], cov, f[0], perf, f[1])
			}
		}
		if equal == 0 || nearPerfect == 0 {
			t.Errorf("seed %d: %d equal-coverage and %d near-perfect points; each claim needs one", seed, equal, nearPerfect)
		}
	}
}

// Fig. 22 shape: Leap below Fastswap; adaptive HoPP near the top.
func TestFig22Shape(t *testing.T) {
	tab := runExp(t, "fig22")[0]
	speedup := map[string]float64{}
	for _, row := range tab.Rows {
		speedup[row[0]] = cell(t, row[1])
	}
	if speedup["Leap"] >= 0 {
		t.Fatalf("Leap speedup %v should be negative", speedup["Leap"])
	}
	if speedup["HoPP"] < 5 {
		t.Fatalf("HoPP speedup %v too small", speedup["HoPP"])
	}
	if speedup["HoPP"] < speedup["HoPP(offset=1K)"] {
		t.Fatal("adaptive HoPP lost to the far-fixed offset")
	}
}

// Regenerating an artifact must be byte-stable: the same experiment,
// seed, and options rendered twice in one process produce identical
// bytes. This is the determinism contract hopplint guards (no wall
// clock, no unseeded rand, no unsorted map ranges on output paths) —
// checked end to end for one table and one figure.
func TestArtifactsAreByteStable(t *testing.T) {
	render := func(id string) []byte {
		var buf bytes.Buffer
		for _, tab := range runExp(t, id) {
			tab.Fprint(&buf)
		}
		return buf.Bytes()
	}
	for _, id := range []string{"table2", "fig1"} {
		first, second := render(id), render(id)
		if len(first) == 0 {
			t.Fatalf("%s rendered no bytes", id)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: two in-process regenerations differ:\n--- first\n%s\n--- second\n%s", id, first, second)
		}
	}
}

// The prefetcher-substrate port (internal/swap → internal/prefetch,
// feedback seams threaded through the VMM and machine) must not move a
// single byte of the existing artifacts. The goldens were rendered at
// Options{Seed: 1, Quick: true} immediately before the port; any drift
// here means the "behavior-preserving" claim broke.
func TestPortKeepsArtifactsByteIdentical(t *testing.T) {
	for _, tc := range []struct{ id, golden string }{
		{"table2", "port_golden_table2.txt"},
		{"fig1", "port_golden_fig1.txt"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatalf("golden %s: %v", tc.golden, err)
		}
		var buf bytes.Buffer
		for _, tab := range runExp(t, tc.id) {
			tab.Fprint(&buf)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted from the pre-port golden:\n--- golden\n%s\n--- got\n%s", tc.id, want, buf.Bytes())
		}
	}
}

// The feedback-baselines comparison must produce both frames with one
// row per Fig. 16 workload and parseable cells.
func TestBaselinesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tables := runExp(t, "baselines")
	if len(tables) != 2 {
		t.Fatalf("baselines returned %d tables, want 2", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) != 8 {
			t.Fatalf("%q has %d rows, want 8", tab.Title, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%q row %v does not match header %v", tab.Title, row, tab.Header)
			}
			for _, c := range row[1:] {
				if v := cell(t, c); v < 0 {
					t.Fatalf("%q cell %q negative", tab.Title, c)
				}
			}
		}
	}
}

// The remaining experiments must at least run and produce rows.
func TestRemainingExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range []string{"table4", "fig2", "fig3", "fig14", "fig15", "fig17", "fig20", "fig21"} {
		for _, tab := range runExp(t, id) {
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table %q", id, tab.Title)
			}
		}
	}
}

// The Progress seam must observe every completed simulation without
// perturbing results: equal (Seed, Quick) yield byte-equal tables with
// and without a callback installed.
func TestProgressSeamIsObservationalOnly(t *testing.T) {
	e, ok := ByID("fig1")
	if !ok {
		t.Fatal("fig1 missing")
	}
	render := func(tables []Table) string {
		var buf bytes.Buffer
		for _, tab := range tables {
			tab.Fprint(&buf)
		}
		return buf.String()
	}
	plain, err := e.Run(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// Ticks arrive from the simulation goroutines, so count atomically.
	var ticks atomic.Int64
	o := quick()
	o.Progress = func() { ticks.Add(1) }
	observed, err := e.Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if ticks.Load() == 0 {
		t.Fatal("Progress callback never invoked")
	}
	if render(plain) != render(observed) {
		t.Fatal("installing a Progress callback changed the rendered tables")
	}
}

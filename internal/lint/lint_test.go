package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the golden files from current analyzer output.
var update = flag.Bool("update", false, "rewrite golden files")

// loadFixture type-checks one fixture package under testdata/src. The
// fixture's package clause (sim, experiments, core, service) decides
// deterministic-package treatment, exactly as it does on the real tree.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadPackage(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return p
}

// render formats diagnostics the way cmd/hopplint prints them, with
// file names reduced to their base so goldens are location-independent.
func render(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&sb, "%s:%d: %s: %s\n", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
	}
	return sb.String()
}

// checkGolden compares analyzer output over a fixture with its golden
// transcript.
func checkGolden(t *testing.T, a *Analyzer, fixture, golden string) {
	t.Helper()
	p := loadFixture(t, fixture)
	got := render(Check([]*Package{p}))
	// Filter to the analyzer under test so fixtures stay focused even
	// when a construct trips a second analyzer incidentally.
	var kept []string
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, ": "+a.Name+": ") {
			kept = append(kept, line)
		}
	}
	got = strings.Join(kept, "\n")
	if len(kept) > 0 {
		got += "\n"
	}

	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s: %v (run `go test ./internal/lint -update` to create)", golden, err)
	}
	if got != string(want) {
		t.Errorf("%s over %s:\n--- got ---\n%s--- want ---\n%s", a.Name, fixture, got, want)
	}
}

// expectClean asserts an analyzer reports nothing over a fixture.
func expectClean(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	p := loadFixture(t, fixture)
	if diags := a.Run(NewModule([]*Package{p})); len(diags) > 0 {
		t.Errorf("%s over %s: want no findings, got:\n%s", a.Name, fixture, render(diags))
	}
}

func TestNoDetermFindsViolations(t *testing.T) {
	checkGolden(t, NoDeterm, "nodeterm_bad", "nodeterm.golden")
}

func TestNoDetermAcceptsSeededRand(t *testing.T) {
	expectClean(t, NoDeterm, "nodeterm_ok")
}

func TestNoDetermExemptsServiceLayer(t *testing.T) {
	expectClean(t, NoDeterm, "nodeterm_exempt")
}

func TestMapOrderFindsViolations(t *testing.T) {
	checkGolden(t, MapOrder, "maporder_bad", "maporder.golden")
}

func TestMapOrderAcceptsWaivedAndUnordered(t *testing.T) {
	expectClean(t, MapOrder, "maporder_ok")
}

func TestCtxFirstFindsViolations(t *testing.T) {
	checkGolden(t, CtxFirst, "ctxfirst_bad", "ctxfirst.golden")
}

func TestCtxFirstAcceptsThreadedContext(t *testing.T) {
	expectClean(t, CtxFirst, "ctxfirst_ok")
}

func TestErrDropFindsViolations(t *testing.T) {
	checkGolden(t, ErrDrop, "errdrop_bad", "errdrop.golden")
}

func TestErrDropAcceptsHandledAndWaived(t *testing.T) {
	expectClean(t, ErrDrop, "errdrop_ok")
}

func TestHotAllocFindsPlantedAllocations(t *testing.T) {
	checkGolden(t, HotAlloc, "hotalloc_bad", "hotalloc.golden")
}

func TestHotAllocAcceptsCleanHotPath(t *testing.T) {
	expectClean(t, HotAlloc, "hotalloc_ok")
}

func TestLockHeldFindsBlockingUnderLock(t *testing.T) {
	checkGolden(t, LockHeld, "lockheld_bad", "lockheld.golden")
}

func TestLockHeldAcceptsDiscipline(t *testing.T) {
	expectClean(t, LockHeld, "lockheld_ok")
}

func TestMapOrderSeesThroughHelpers(t *testing.T) {
	checkGolden(t, MapOrder, "maporder_interproc_bad", "maporder_interproc.golden")
}

func TestStaleWaiverFindsRot(t *testing.T) {
	checkGolden(t, StaleWaiver, "stalewaiver_bad", "stalewaiver.golden")
}

// The call graph's ordering contract: three fresh load-and-build runs
// over the same module must render byte-identical DebugString output —
// nodes sorted by qualified name (init functions tie-broken by
// position), edges in source order, summary facts propagated.
func TestCallGraphDeterministicOrder(t *testing.T) {
	files := map[string]string{
		"go.mod": "module fixture.test/cg\n\ngo 1.22\n",
		"a/a.go": "package a\n\n" +
			"func Leaf() int { return 1 }\n\n" +
			"func Mid() []int { return make([]int, Leaf()) }\n",
		"b/b.go": "package b\n\n" +
			"import (\n\t\"strconv\"\n\n\t\"fixture.test/cg/a\"\n)\n\n" +
			"type T struct{ s string }\n\n" +
			"func (t *T) Bump() { t.s = strconv.Itoa(len(a.Mid())) }\n\n" +
			"var seen []int\n\n" +
			"func init() { _ = a.Leaf() }\n\n" +
			"func init() { seen = a.Mid() }\n",
	}
	root := writeModule(t, files)
	want := "(*fixture.test/cg/b.T).Bump [A]\n" +
		"  ~> strconv.Itoa\n" +
		"  -> fixture.test/cg/a.Mid\n" +
		"fixture.test/cg/a.Leaf [-]\n" +
		"fixture.test/cg/a.Mid [A]\n" +
		"  -> fixture.test/cg/a.Leaf\n" +
		"fixture.test/cg/b.init [-]\n" +
		"  -> fixture.test/cg/a.Leaf\n" +
		"fixture.test/cg/b.init [A]\n" +
		"  -> fixture.test/cg/a.Mid\n"
	for i := 0; i < 3; i++ {
		l, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := l.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		got := NewModule(pkgs).Graph.DebugString()
		if got != want {
			t.Fatalf("run %d: call graph rendering diverged:\n--- got ---\n%s--- want ---\n%s", i, got, want)
		}
	}
}

// A deterministic package calling a service-layer helper that
// transitively reads the wall clock is flagged at the call site — the
// interprocedural half of nodeterm.
func TestNoDetermSeesTransitiveClockReads(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture.test/clk\n\ngo 1.22\n",
		"svc/svc.go": "package svc\n\n" +
			"import \"time\"\n\n" +
			"// Stamp is fine here: svc is not a deterministic package.\n" +
			"func Stamp() int64 { return time.Now().UnixNano() }\n\n" +
			"func Wrapped() int64 { return Stamp() }\n",
		"sim/sim.go": "package sim\n\n" +
			"import \"fixture.test/clk/svc\"\n\n" +
			"func Step() int64 { return svc.Wrapped() }\n",
		"cmd/run/main.go": "package main\n\n" +
			"import \"fixture.test/clk/sim\"\n\n" +
			"func main() { println(sim.Step()) }\n",
	})
	_, findings := loadAllPaths(t, root)
	want := "sim.go:5: nodeterm: call to fixture.test/clk/svc.Wrapped reads the wall clock (transitively); deterministic packages must derive time from the virtual clock\n"
	if findings != want {
		t.Fatalf("findings:\n--- got ---\n%s--- want ---\n%s", findings, want)
	}
}

// TestRepoIsLintClean is the merge gate in test form: the whole module
// must produce zero findings. scripts/check.sh runs the same check via
// cmd/hopplint; having it here keeps `go test ./...` sufficient.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped under -short")
	}
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	// The bench harness is its own module, but LoadAll loads it as a
	// package main of this one, so what only bench calls stays a
	// production root for unreachable.
	bench := false
	for _, p := range pkgs {
		bench = bench || p.Path == l.Module()+"/bench" && p.Name == "main"
	}
	if !bench {
		t.Error("LoadAll did not load the bench harness as package main")
	}
	if diags := Check(pkgs); len(diags) > 0 {
		t.Errorf("module has %d lint finding(s):\n%s", len(diags), render(diags))
	}
}

// TestDeterministicPackagesMatchInternal keeps DeterministicPackages
// equal to the package directories under internal/, less the exempt
// ones: a new package is deterministic unless it is listed here with its
// reason, and a deleted package leaves no stale entry behind.
func TestDeterministicPackagesMatchInternal(t *testing.T) {
	exempt := map[string]string{
		"service": "the daemon reads the wall clock by design (timeouts, retention, Retry-After)",
		"lint":    "the analyzers read source files from disk",
	}
	entries, err := os.ReadDir(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dirs[e.Name()] = true
		if _, ok := exempt[e.Name()]; ok {
			if DeterministicPackages[e.Name()] {
				t.Errorf("internal/%s is exempt but listed in DeterministicPackages", e.Name())
			}
			continue
		}
		if !DeterministicPackages[e.Name()] {
			t.Errorf("internal/%s is missing from DeterministicPackages", e.Name())
		}
	}
	for name := range exempt {
		if !dirs[name] {
			t.Errorf("exempt package internal/%s does not exist", name)
		}
	}
	for name := range DeterministicPackages {
		if !dirs[name] {
			t.Errorf("DeterministicPackages lists %q, which is not a directory under internal/", name)
		}
	}
}

// writeModule materializes a synthetic module on disk for loader tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// loadAllPaths runs LoadAll on a fresh loader and returns the package
// paths in returned order plus the rendered findings.
func loadAllPaths(t *testing.T, root string) ([]string, string) {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(pkgs))
	for i, p := range pkgs {
		paths[i] = p.Path
	}
	return paths, render(Check(pkgs))
}

// Repeated LoadAll runs over a module with a dependency chain, a
// diamond, and unrelated leaves return packages in the same sorted
// order with byte-identical findings (the golden-order contract).
func TestLoadAllDeterministic(t *testing.T) {
	files := map[string]string{
		"go.mod":    "module fixture.test/m\n\ngo 1.22\n",
		"a/a.go":    "package a\n\nfunc A() int { return 1 }\n",
		"b/b.go":    "package b\n\nimport \"fixture.test/m/a\"\n\nfunc B() int { return a.A() + 1 }\n",
		"c/c.go":    "package c\n\nimport (\n\t\"fixture.test/m/a\"\n\t\"fixture.test/m/b\"\n)\n\nfunc C() int { return a.A() + b.B() }\n",
		"d/d.go":    "package d\n\nfunc D() error { return nil }\n\nfunc Drop() {\n\t_ = D()\n}\n",
		"e/e.go":    "package e\n\nfunc E() error { return nil }\n\nfunc Drop() {\n\t_ = E()\n}\n",
		"solo/s.go": "package solo\n\nfunc S() int { return 9 }\n",
	}
	root := writeModule(t, files)
	wantPaths := []string{
		"fixture.test/m/a", "fixture.test/m/b", "fixture.test/m/c",
		"fixture.test/m/d", "fixture.test/m/e", "fixture.test/m/solo",
	}
	firstPaths, firstFindings := loadAllPaths(t, root)
	if strings.Join(firstPaths, " ") != strings.Join(wantPaths, " ") {
		t.Fatalf("LoadAll order = %v, want %v", firstPaths, wantPaths)
	}
	// The errdrop fixtures in d and e must both surface, in file order.
	if !strings.Contains(firstFindings, "d.go") || !strings.Contains(firstFindings, "e.go") {
		t.Fatalf("expected errdrop findings from d and e, got:\n%s", firstFindings)
	}
	for i := 0; i < 3; i++ {
		paths, findings := loadAllPaths(t, root)
		if strings.Join(paths, " ") != strings.Join(firstPaths, " ") {
			t.Fatalf("run %d: package order diverged: %v vs %v", i, paths, firstPaths)
		}
		if findings != firstFindings {
			t.Fatalf("run %d: findings diverged:\n--- first\n%s--- now\n%s", i, firstFindings, findings)
		}
	}
}

// An import cycle must fail LoadAll deterministically instead of
// recursing forever.
func TestLoadAllDetectsImportCycle(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture.test/cyc\n\ngo 1.22\n",
		"x/x.go": "package x\n\nimport \"fixture.test/cyc/y\"\n\nfunc X() int { return y.Y() }\n",
		"y/y.go": "package y\n\nimport \"fixture.test/cyc/x\"\n\nfunc Y() int { return x.X() }\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadAll(); err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("LoadAll over a cycle = %v, want import-cycle error", err)
	}
}

// A package that fails to type-check must surface its own error, not a
// confusing cascade from the packages that import it.
func TestLoadAllReportsRootFailureFirst(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":      "module fixture.test/bad\n\ngo 1.22\n",
		"broken/b.go": "package broken\n\nfunc B() int { return undefinedSymbol }\n",
		"user/u.go":   "package user\n\nimport \"fixture.test/bad/broken\"\n\nfunc U() int { return broken.B() }\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadAll()
	if err == nil || !strings.Contains(err.Error(), "type-checking fixture.test/bad/broken") {
		t.Fatalf("LoadAll = %v, want the broken package's own type error", err)
	}
}

// The unreachable analyzer over a module shaped like the repo: a facade
// at the root, a library, a cmd and a bench harness (its own go.mod,
// loaded all the same). It flags a function only a _test.go file calls
// and a helper only such a function calls; it keeps a function stored
// in a package-level map, a method called through an interface, a
// generic method, the methods of facade-aliased types (a struct and a
// pointer), a function only bench calls, and a waived seam with its
// helper. A testonly waiver on a function production reaches is stale,
// and one without a reason is reported.
func TestUnreachableFindsTestOnlyCode(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture.test/u\n\ngo 1.22\n",
		"u.go": "package u\n\n" +
			"import \"fixture.test/u/lib\"\n\n" +
			"type Engine = lib.Engine\n\n" +
			"type Handle = *lib.Handle\n\n" +
			"func Run() int { return lib.Catalog[\"a\"]() }\n",
		"lib/lib.go": "package lib\n\n" +
			"var Catalog = map[string]func() int{\"a\": fromMap}\n\n" +
			"func fromMap() int { return 1 }\n\n" +
			"type Shape interface{ Area() int }\n\n" +
			"type Square struct{}\n\n" +
			"func (Square) Area() int { return 4 }\n\n" +
			"func Measure(s Shape) int { return s.Area() }\n\n" +
			"type Box[T any] struct{ v T }\n\n" +
			"func (b *Box[T]) Get() T { return b.v }\n\n" +
			"func UseBox() int {\n\tvar b Box[int]\n\treturn b.Get()\n}\n\n" +
			"type Engine struct{}\n\n" +
			"func (e *Engine) Status() string { return \"ok\" }\n\n" +
			"func ForBench() int { return 2 }\n\n" +
			"func OnlyTests() int { return 3 }\n\n" +
			"func unreached() int { return helper() }\n\n" +
			"func helper() int { return 5 }\n\n" +
			"// Seam is a cross-package test seam.\n" +
			"//\n" +
			"//hopplint:testonly the cmd tests need it\n" +
			"func Seam() int { return seamHelper() }\n\n" +
			"func seamHelper() int { return 6 }\n\n" +
			"//hopplint:testonly production calls this one\n" +
			"func Stale() int { return 7 }\n\n" +
			"//hopplint:testonly\n" +
			"func Bare() int { return 8 }\n\n" +
			"type Handle struct{}\n\n" +
			"func (h *Handle) Label() string { return \"h\" }\n",
		"lib/lib_test.go": "package lib\n\n" +
			"import \"testing\"\n\n" +
			"func TestOnly(t *testing.T) { _ = OnlyTests() + unreached() }\n",
		"cmd/tool/main.go": "package main\n\n" +
			"import \"fixture.test/u/lib\"\n\n" +
			"func main() { println(lib.Measure(lib.Square{}) + lib.UseBox() + lib.Stale()) }\n",
		"bench/go.mod": "module fixture.test/u/bench\n\ngo 1.22\n",
		"bench/main.go": "package main\n\n" +
			"import \"fixture.test/u/lib\"\n\n" +
			"func main() { println(lib.ForBench()) }\n",
	})
	_, findings := loadAllPaths(t, root)
	unreached := " is reached by no production root; delete it or move it into the package's _test.go files (a seam other packages' tests need takes //hopplint:testonly <reason>)\n"
	want := "lib.go:30: unreachable: fixture.test/u/lib.OnlyTests" + unreached +
		"lib.go:32: unreachable: fixture.test/u/lib.unreached" + unreached +
		"lib.go:34: unreachable: fixture.test/u/lib.helper" + unreached +
		"lib.go:43: stalewaiver: //hopplint:testonly suppresses no finding; remove it\n" +
		"lib.go:47: unreachable: //hopplint:testonly waiver has no reason; name the tests outside the package that need fixture.test/u/lib.Bare\n"
	if findings != want {
		t.Fatalf("findings:\n--- got ---\n%s--- want ---\n%s", findings, want)
	}
}

// A package that no loaded package imports, outside package main and
// the facade, is skipped whole, waivers included: it is a test-only
// package, or the run covers only part of the tree.
func TestUnreachableSkipsUnimportedPackage(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture.test/s\n\ngo 1.22\n",
		"ref/ref.go": "package ref\n\n" +
			"func Orphan() int { return 1 }\n\n" +
			"//hopplint:testonly judged only when something imports ref\n" +
			"func Waived() int { return 2 }\n",
	})
	if _, findings := loadAllPaths(t, root); findings != "" {
		t.Fatalf("want no findings in an unimported package, got:\n%s", findings)
	}
}

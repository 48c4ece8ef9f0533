// Package lint is hopplint: repo-specific static analysis that makes
// the simulator's determinism contract machine-checked. Every table,
// figure, hot-page trace, and hoppd cache entry this reproduction
// produces is only trustworthy because equal (workload, system, frac,
// seed) inputs yield equal bytes; these analyzers fail the build on the
// constructs that silently break that property.
//
// Seven analyzers run over every non-test package of the module:
//
//   - nodeterm: inside the deterministic packages (the simulation core,
//     see DeterministicPackages), forbids wall-clock reads (time.Now,
//     time.Since, the timer constructors), the global math/rand source
//     (package-level rand functions and rand.Seed; seeded
//     rand.New(rand.NewSource(...)) is the sanctioned form),
//     environment reads (os.Getenv and friends), os.ReadFile/os.Open of
//     paths not derived from a parameter, and calls into
//     non-deterministic module packages that transitively read the wall
//     clock. The service and cmd layers are exempt: wall time is their
//     job.
//   - maporder: flags `range` over a map whose body emits ordered
//     output — appending to an escaping slice, writing to an io.Writer,
//     or formatting — directly or through any chain of module helper
//     calls (the call-graph summaries see through helpers). Audited
//     sites that sort afterwards carry a //hopplint:sorted waiver.
//   - ctxfirst: a context.Context parameter must come first, and the
//     deterministic packages must not store contexts in struct fields.
//   - errdrop: forbids `_ =` discards of error-returning calls; audited
//     discards carry //hopplint:errok <reason>.
//   - hotalloc: from a declared hot-path root set (functions annotated
//     //hopplint:hotpath, plus HotPathRoots), every reachable module
//     function is scanned for allocation-inducing constructs: make/new,
//     map/slice literals, closures, append growth, string
//     concatenation, interface boxing at call sites, and fmt/strconv
//     formatting. Audited sites carry //hopplint:allocok <reason>.
//   - lockheld: flags operations that can block — channel sends and
//     receives, selects without default, file and network I/O, calls
//     whose transitive summary blocks — while a sync.Mutex/RWMutex is
//     held, plus lock-order inversions (lock pairs acquired in both
//     orders anywhere in the module). Audited sites carry
//     //hopplint:lockok <reason>.
//   - stalewaiver: any //hopplint waiver comment that suppresses zero
//     findings is itself reported, so the waiver set cannot rot.
//
// The interprocedural analyzers ride a module-wide static call graph
// (callgraph.go) with per-function summaries (summaries.go): allocates,
// writes-ordered-output, blocks, reads-wall-clock, and the set of locks
// acquired. Edges and findings are deterministically ordered, so golden
// tests are byte-stable across runs.
//
// The driver is cmd/hopplint; scripts/check.sh runs it as a hard gate.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// DeterministicPackages names the packages whose outputs must be a pure
// function of their inputs — the simulation core and everything it is
// built from. Matching is by package name: these are exactly the leaf
// names under internal/ except service (it reads the wall clock by
// design) and lint (it reads source files), and the cmd layer (package
// main) is deliberately absent. TestDeterministicPackagesMatchInternal
// keeps the list in step with the tree.
var DeterministicPackages = map[string]bool{
	"sim":         true,
	"workload":    true,
	"experiments": true,
	"hpd":         true,
	"mc":          true,
	"rpt":         true,
	"memsim":      true,
	"cachesim":    true,
	"hmtt":        true,
	"prefetch":    true,
	"vmm":         true,
	"vclock":      true,
	"core":        true,
	// The trace pipeline behind ingest and traceanalyze: its counts must
	// be a pure function of the record stream.
	"tracepipe": true,
	// The open-addressing table under the executor/rdma/prefetcher hot
	// paths is pure data structure; it must stay free of clocks and
	// global randomness like everything else the simulator is built on.
	"flatmap": true,
	// The replacement state shared by cachesim and hpd, likewise.
	"lru": true,
	// The radix index under the vmm page tables and cachesim's page
	// records, likewise.
	"radix": true,
	// The naive reference machine the tests check sim against: its
	// Metrics must be as pure a function of the config as sim's.
	"refsim": true,
	// The RDMA fabric: its jitter is seeded, and its queueing model
	// runs on simulated time, never the host's.
	"rdma": true,
	// The fault injector must itself be deterministic — seeded rules, no
	// wall clock — or the failures it injects wouldn't replay.
	"faults": true,
}

// HotPathRoots names additional hot-path root functions for the
// hotalloc analyzer by their qualified name (types.Func.FullName form,
// e.g. "(*hopp/internal/cachesim.Cache).Access"). The primary mechanism
// is the //hopplint:hotpath annotation on the function declaration
// itself — this list exists for roots whose source cannot carry the
// annotation. It is empty for the repo's own tree.
var HotPathRoots []string

// waiverDirectives lists every //hopplint:<name> directive the
// analyzers consult. stalewaiver reports any occurrence of these that
// suppressed nothing; a directive name outside this list is simply
// ignored (and therefore never stale).
var waiverDirectives = []string{"errok", "sorted", "allocok", "lockok", "hotpath"}

// Diagnostic is one finding, formatted as "file:line: analyzer: message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic with the full position path.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Module is the unit the analyzers run over: the loaded packages plus
// the static call graph and per-function summaries spanning them. A
// Module built from a single fixture package works exactly like one
// built from the whole repo — cross-package edges simply resolve only
// within the packages present.
type Module struct {
	Pkgs  []*Package
	Graph *CallGraph
}

// NewModule assembles the call graph and computes summaries once; every
// analyzer then reads the shared result.
func NewModule(pkgs []*Package) *Module {
	for _, p := range pkgs {
		p.resetWaiverUse() // summary computation already consumes lockok waivers
	}
	g := buildCallGraph(pkgs)
	computeSummaries(g)
	return &Module{Pkgs: pkgs, Graph: g}
}

// Analyzer is one named pass over a module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Module) []Diagnostic
}

// Analyzers returns every hopplint analyzer in fixed order. The order
// is load-bearing in one place: StaleWaiver must run last, because it
// reports the waiver comments the earlier analyzers did not consume.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoDeterm,
		MapOrder,
		CtxFirst,
		ErrDrop,
		HotAlloc,
		LockHeld,
		StaleWaiver,
	}
}

// Check runs every analyzer over the packages as one module and returns
// the combined findings sorted by position then analyzer, ready to
// print.
func Check(pkgs []*Package) []Diagnostic {
	m := NewModule(pkgs)
	var diags []Diagnostic
	for _, a := range Analyzers() {
		diags = append(diags, a.Run(m)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

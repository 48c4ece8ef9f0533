package sim

import (
	"context"
	"math"
	"strings"
	"testing"

	"hopp/internal/core"
	"hopp/internal/vclock"
	"hopp/internal/workload"
)

func run(t *testing.T, sys System, gen workload.Generator, frac float64) Metrics {
	t.Helper()
	met, err := Run(context.Background(), Config{System: sys, LocalMemoryFrac: frac, Seed: 1}, gen)
	if err != nil {
		t.Fatalf("%s on %s: %v", sys.Name, gen.Name(), err)
	}
	return met
}

func TestLocalRunHasNoRemoteTraffic(t *testing.T) {
	met := run(t, NoPrefetch(), workload.NewSequential(256, 2), 0)
	if met.MajorFaults != 0 || met.RemoteReads != 0 || met.RemoteWrites != 0 {
		t.Fatalf("local run touched remote: %+v", met)
	}
	if met.MinorFault != 256 {
		t.Fatalf("minor faults = %d, want 256 (one per page)", met.MinorFault)
	}
	if met.CompletionTime <= 0 {
		t.Fatal("no completion time")
	}
	if met.CacheHits+met.DRAMHits != met.Accesses {
		t.Fatalf("access accounting broken: %d+%d != %d", met.CacheHits, met.DRAMHits, met.Accesses)
	}
}

func TestNoPrefetchFaultsEveryColdPage(t *testing.T) {
	// Two passes at 50% memory: the second pass faults on evicted pages.
	met := run(t, NoPrefetch(), workload.NewSequential(512, 2), 0.5)
	if met.MajorFaults == 0 {
		t.Fatal("no major faults under memory pressure")
	}
	if met.PrefetchIssued != 0 || met.SwapCacheHits != 0 {
		t.Fatalf("NoPrefetch prefetched: %+v", met)
	}
	// Sequential with LRU at 50%: every page of pass 2 is a miss.
	if met.MajorFaults < 400 {
		t.Fatalf("major faults = %d, want ≈512", met.MajorFaults)
	}
}

func TestFastswapCoverageOnSequential(t *testing.T) {
	met := run(t, Fastswap(), workload.NewSequential(512, 3), 0.5)
	if met.SwapCacheHits == 0 {
		t.Fatal("readahead produced no swapcache hits")
	}
	// Window-8 readahead on a pure sequential stream: ≈8 of every 9
	// remote pages are prefetch hits.
	if cov := met.Coverage(); cov < 0.80 || cov > 0.95 {
		t.Fatalf("coverage = %.3f, want ≈0.89", cov)
	}
	if acc := met.Accuracy(); acc < 0.95 {
		t.Fatalf("accuracy = %.3f, want ≈1 on clean sequential", acc)
	}
}

func TestHoPPBeatsFastswapOnSequential(t *testing.T) {
	// Footprint (16 MB) far above the 2 MB LLC, as in the paper's
	// GB-scale workloads: the local baseline is DRAM-bound too, so the
	// normalized gap isolates the kernel/remote path.
	gen := workload.NewSequential(4096, 3)
	local := run(t, NoPrefetch(), gen, 0)
	fast := run(t, Fastswap(), gen, 0.5)
	hopp := run(t, HoPP(), gen, 0.5)
	none := run(t, NoPrefetch(), gen, 0.5)

	if hopp.InjectedHits == 0 {
		t.Fatal("HoPP injected no pages")
	}
	if hopp.CompletionTime >= fast.CompletionTime {
		t.Fatalf("HoPP (%v) not faster than Fastswap (%v)", hopp.CompletionTime, fast.CompletionTime)
	}
	if fast.CompletionTime >= none.CompletionTime {
		t.Fatalf("Fastswap (%v) not faster than NoPrefetch (%v)", fast.CompletionTime, none.CompletionTime)
	}
	if n := hopp.NormalizedPerformance(local); n < 0.7 || n > 1.0 {
		t.Fatalf("HoPP normalized performance = %.3f, want high but ≤1", n)
	}
	if hopp.Accuracy() < 0.9 {
		t.Fatalf("HoPP accuracy = %.3f, want >0.9", hopp.Accuracy())
	}
	if hopp.Coverage() < 0.9 {
		t.Fatalf("HoPP coverage = %.3f, want >0.9", hopp.Coverage())
	}
	if hopp.HotPagesEmitted == 0 {
		t.Fatal("MC emitted no hot pages")
	}
	if hopp.DRAMHitCoverage() < hopp.SwapCacheHitCoverage() {
		t.Fatalf("HoPP coverage should be injection-dominated: dram=%.3f swap=%.3f",
			hopp.DRAMHitCoverage(), hopp.SwapCacheHitCoverage())
	}
}

func TestDeterminism(t *testing.T) {
	gen := workload.NewNPBMG(384, 1)
	a := run(t, HoPP(), gen, 0.5)
	b := run(t, HoPP(), gen, 0.5)
	if a.CompletionTime != b.CompletionTime || a.MajorFaults != b.MajorFaults ||
		a.PrefetchIssued != b.PrefetchIssued || a.InjectedHits != b.InjectedHits {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", a, b)
	}
}

func TestRemoteNodeConsistency(t *testing.T) {
	// The kernel must never read a page it never wrote out.
	for _, sys := range []System{NoPrefetch(), Fastswap(), Leap(), DepthN(16), VMA(), HoPP()} {
		gen := workload.NewQuicksort(256)
		m := MustNew(Config{System: sys, LocalMemoryFrac: 0.5, Seed: 3}, gen)
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
	}
}

func TestAllSystemsAllWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke matrix is slow")
	}
	gens := []workload.Generator{
		workload.NewOMPKMeans(256, 2),
		workload.NewHPL(8, 96),
		workload.NewNPBIS(256),
		workload.NewGraphX("PR", 128),
	}
	systems := []System{Fastswap(), Leap(), DepthN(32), VMA(), HoPP()}
	for _, g := range gens {
		for _, sys := range systems {
			met := run(t, sys, g, 0.5)
			if met.Accesses == 0 {
				t.Fatalf("%s on %s: no accesses", sys.Name, g.Name())
			}
			if met.CacheHits+met.DRAMHits != met.Accesses {
				t.Fatalf("%s on %s: access accounting broken", sys.Name, g.Name())
			}
			if a := met.Accuracy(); a < 0 || a > 1 {
				t.Fatalf("%s on %s: accuracy %f out of range", sys.Name, g.Name(), a)
			}
			if c := met.Coverage(); c < 0 || c > 1 {
				t.Fatalf("%s on %s: coverage %f out of range", sys.Name, g.Name(), c)
			}
		}
	}
}

func TestDepthNInjects(t *testing.T) {
	met := run(t, DepthN(16), workload.NewSequential(512, 2), 0.5)
	if met.InjectedHits == 0 {
		t.Fatal("Depth-N produced no injected hits")
	}
	if met.SwapCacheHits != 0 {
		t.Fatal("Depth-N landed pages in the swapcache")
	}
}

func TestVMADoesNotPrefetchAcrossRegions(t *testing.T) {
	met := run(t, VMA(), workload.NewAddUp(2, 256), 0.5)
	if met.PrefetchIssued == 0 {
		t.Fatal("VMA prefetched nothing")
	}
	if met.Accuracy() < 0.5 {
		t.Fatalf("VMA accuracy = %.3f; region clipping should keep it useful", met.Accuracy())
	}
}

func TestMultiAppRun(t *testing.T) {
	m := MustNew(Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 5},
		workload.NewSequential(256, 2),
		workload.NewStrided(512, 2, 2),
	)
	met, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(met.PerApp) != 2 {
		t.Fatalf("PerApp = %v", met.PerApp)
	}
	for name, ct := range met.PerApp {
		if ct <= 0 {
			t.Fatalf("app %s has no completion time", name)
		}
		if ct > met.CompletionTime {
			t.Fatalf("app %s finished after the max", name)
		}
	}
}

func TestComparisonHelper(t *testing.T) {
	cmp, err := Compare(context.Background(), Config{LocalMemoryFrac: 0.5, Seed: 1},
		workload.NewSequential(256, 2), Fastswap(), HoPP())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Workload != "Sequential" || len(cmp.Results) != 2 {
		t.Fatalf("cmp = %+v", cmp)
	}
	if _, ok := cmp.Find("HoPP"); !ok {
		t.Fatal("Find failed")
	}
	if _, ok := cmp.Find("nope"); ok {
		t.Fatal("Find matched a missing system")
	}
	for i := range cmp.Results {
		if n := cmp.Normalized(i); n <= 0 || n > 1.05 {
			t.Fatalf("normalized[%d] = %f", i, n)
		}
	}
}

func TestNoWorkloadsRejected(t *testing.T) {
	if _, err := New(Config{System: Fastswap()}); err == nil {
		t.Fatal("machine with no workloads accepted")
	}
}

// A 16 KiB 8-way L2 has 32 sets, so a page's 64 lines would share sets
// and a visit could not be played as one line mask: New must refuse it
// and name the bound; 32 KiB, 64 sets, is the smallest L2 it accepts.
func TestCacheTooFewSetsRejected(t *testing.T) {
	_, err := New(Config{System: NoPrefetch(), L2Bytes: 16 << 10}, workload.NewSequential(4, 1))
	if err == nil {
		t.Fatal("16 KiB 8-way L2 accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "L2 has 32 sets") || !strings.Contains(msg, "64") {
		t.Fatalf("error %q does not name the level's sets and the bound", msg)
	}
	if _, err := New(Config{System: NoPrefetch(), L2Bytes: 32 << 10}, workload.NewSequential(4, 1)); err != nil {
		t.Fatalf("32 KiB L2 rejected: %v", err)
	}
}

// A cache size that does not divide into a power-of-two number of sets
// is an error from New, not a panic: a 96 KiB 8-way L2 has 192 sets,
// and a negative LLC has none.
func TestBadCacheGeometryRejected(t *testing.T) {
	for _, cfg := range []Config{
		{System: NoPrefetch(), L2Bytes: 96 << 10},
		{System: NoPrefetch(), LLCBytes: -1 << 20},
	} {
		if _, err := New(cfg, workload.NewSequential(4, 1)); err == nil || !strings.Contains(err.Error(), "power-of-two number of sets") {
			t.Errorf("New(L2 %d B, LLC %d B) = %v, want the geometry error", cfg.L2Bytes, cfg.LLCBytes, err)
		}
	}
}

// HoPP params the trainer cannot take are an error from Run, before
// the machine is built, not a panic mid-run; the bounds themselves run,
// and Bulk's fields count only with Bulk on.
func TestBadHoPPParamsRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*core.Params)
		bad  bool
	}{
		{"HistoryLen 1", func(p *core.Params) { p.HistoryLen = 1 }, true},
		{"HistoryLen -3", func(p *core.Params) { p.HistoryLen = -3 }, true},
		{"HistoryLen 65", func(p *core.Params) { p.HistoryLen = 65 }, true},
		{"StreamEntries 65", func(p *core.Params) { p.StreamEntries = 65 }, true},
		{"StreamEntries -1", func(p *core.Params) { p.StreamEntries = -1 }, true},
		{"DeltaStream -5", func(p *core.Params) { p.DeltaStream = -5 }, true},
		{"MaxRippleStride -1", func(p *core.Params) { p.MaxRippleStride = -1 }, true},
		{"Policy.Intensity -2", func(p *core.Params) { p.Policy.Intensity = -2 }, true},
		{`Algorithm "bogus"`, func(p *core.Params) { p.Algorithm = "bogus" }, true},
		{"Policy.Alpha -3", func(p *core.Params) { p.Policy.Alpha = -3 }, true},
		{"Policy.Alpha 1", func(p *core.Params) { p.Policy.Alpha = 1 }, true},
		{"Policy.Alpha NaN", func(p *core.Params) { p.Policy.Alpha = math.NaN() }, true},
		{"Policy.MaxOffset -5", func(p *core.Params) { p.Policy.MaxOffset = -5 }, true},
		{"Policy.MaxOffset NaN", func(p *core.Params) { p.Policy.MaxOffset = math.NaN() }, true},
		{"Policy.InitialOffset -8", func(p *core.Params) { p.Policy.InitialOffset = -8 }, true},
		{"Policy.InitialOffset 0.5", func(p *core.Params) { p.Policy.InitialOffset = 0.5 }, true},
		{"Policy.TMax below Policy.TMin", func(p *core.Params) { p.Policy.TMin, p.Policy.TMax = vclock.Millisecond, vclock.Millisecond-1 }, true},
		{"Bulk.Pages -4", func(p *core.Params) { p.Bulk.Enable, p.Bulk.Pages = true, -4 }, true},
		{"Bulk.StreamLength -1", func(p *core.Params) { p.Bulk.Enable, p.Bulk.StreamLength = true, -1 }, true},
		{"Bulk.MinRemoteFrac -0.5", func(p *core.Params) { p.Bulk.Enable, p.Bulk.MinRemoteFrac = true, -0.5 }, true},
		{"Bulk.MinRemoteFrac 1.5", func(p *core.Params) { p.Bulk.Enable, p.Bulk.MinRemoteFrac = true, 1.5 }, true},
		{"Bulk.MinRemoteFrac NaN", func(p *core.Params) { p.Bulk.Enable, p.Bulk.MinRemoteFrac = true, math.NaN() }, true},
		{"HistoryLen 2", func(p *core.Params) { p.HistoryLen = 2 }, false},
		{"HistoryLen 64", func(p *core.Params) { p.HistoryLen = 64 }, false},
		{"StreamEntries 1", func(p *core.Params) { p.StreamEntries = 1 }, false},
		{"StreamEntries 64", func(p *core.Params) { p.StreamEntries = 64 }, false},
		{"DeltaStream 1", func(p *core.Params) { p.DeltaStream = 1 }, false},
		{"Policy.Intensity 1", func(p *core.Params) { p.Policy.Intensity = 1 }, false},
		{"Policy.Alpha 0.5", func(p *core.Params) { p.Policy.Alpha = 0.5 }, false},
		{"Policy.MaxOffset 1", func(p *core.Params) { p.Policy.MaxOffset = 1 }, false},
		{"Policy.InitialOffset 1000", func(p *core.Params) { p.Policy.Adaptive, p.Policy.InitialOffset = false, 1000 }, false},
		{"Policy.TMax equal to Policy.TMin", func(p *core.Params) { p.Policy.TMin, p.Policy.TMax = vclock.Millisecond, vclock.Millisecond }, false},
		{`Algorithm "three-tier"`, func(p *core.Params) { p.Algorithm = core.AlgoThreeTier }, false},
		{`Algorithm "markov"`, func(p *core.Params) { p.Algorithm = core.AlgoMarkov }, false},
		{"Bulk.Pages 1", func(p *core.Params) { p.Bulk.Enable, p.Bulk.Pages = true, 1 }, false},
		{"Bulk.StreamLength 1", func(p *core.Params) { p.Bulk.Enable, p.Bulk.StreamLength = true, 1 }, false},
		{"Bulk.MinRemoteFrac 1", func(p *core.Params) { p.Bulk.Enable, p.Bulk.MinRemoteFrac = true, 1 }, false},
		{"Bulk.Pages -4 with Bulk off", func(p *core.Params) { p.Bulk.Pages = -4 }, false},
	} {
		p := core.DefaultParams()
		c.set(&p)
		met, err := Run(context.Background(), Config{System: HoPPWith(p), LocalMemoryFrac: 0.5, Seed: 1}, workload.NewSequential(512, 2))
		switch {
		case c.bad && (err == nil || !strings.Contains(err.Error(), c.name)):
			t.Errorf("%s: Run error = %v, want one naming %q", c.name, err, c.name)
		case !c.bad && err != nil:
			t.Errorf("%s: Run error = %v, want a run", c.name, err)
		case !c.bad && met.Accesses == 0:
			t.Errorf("%s: no accesses", c.name)
		}
	}
}

// A local-memory fraction outside [0, 1) is an error from Run: a
// negative or NaN one would otherwise run silently as all-local, and 1
// or more would limit nothing.
func TestBadLocalMemoryFracRejected(t *testing.T) {
	for _, frac := range []float64{-0.5, math.NaN(), 1, 1.5, math.Inf(1), math.Inf(-1)} {
		_, err := Run(context.Background(), Config{System: HoPP(), LocalMemoryFrac: frac, Seed: 1}, workload.NewSequential(256, 2))
		if err == nil || !strings.Contains(err.Error(), "LocalMemoryFrac") {
			t.Errorf("frac %g: Run error = %v, want one naming LocalMemoryFrac", frac, err)
		}
	}
	for _, frac := range []float64{0, 0.25, 0.999} {
		met, err := Run(context.Background(), Config{System: HoPP(), LocalMemoryFrac: frac, Seed: 1}, workload.NewSequential(256, 2))
		if err != nil || met.Accesses == 0 {
			t.Errorf("frac %g: Run = %d accesses, %v; want a run", frac, met.Accesses, err)
		}
	}
}

func TestMaxAccessesGuard(t *testing.T) {
	m := MustNew(Config{System: NoPrefetch(), MaxAccesses: 100}, workload.NewSequential(64, 1))
	if _, err := m.Run(); err == nil {
		t.Fatal("MaxAccesses not enforced")
	}
}

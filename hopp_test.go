package hopp

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"hopp/internal/vclock"
)

func TestQuickstartFlow(t *testing.T) {
	gen := Workloads.Sequential(512, 2)
	cmp, err := Compare(context.Background(), gen, 0.5, 1, Fastswap(), HoPP())
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Results) != 2 {
		t.Fatalf("results = %d", len(cmp.Results))
	}
	hopp, ok := cmp.Find("HoPP")
	if !ok {
		t.Fatal("HoPP result missing")
	}
	if hopp.Coverage() <= 0 {
		t.Fatal("HoPP coverage zero")
	}
}

func TestRunSingle(t *testing.T) {
	met, err := Run(context.Background(), NoPrefetch(), Workloads.Quicksort(256), 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if met.CompletionTime <= 0 {
		t.Fatal("no completion time")
	}
}

func TestNewMachineMultiApp(t *testing.T) {
	m, err := NewMachine(Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 3},
		Workloads.OMPKMeans(256, 2), Workloads.NPBIS(256))
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(met.PerApp) != 2 {
		t.Fatalf("PerApp = %v", met.PerApp)
	}
}

func TestAllWorkloadConstructors(t *testing.T) {
	gens := []Workload{
		Workloads.Sequential(64, 1),
		Workloads.Strided(64, 2, 1),
		Workloads.Intertwined(64, 0.1),
		Workloads.Ladder(64, 1),
		Workloads.Ripple(64, 1),
		Workloads.AddUp(2, 64),
		Workloads.OMPKMeans(64, 1),
		Workloads.Quicksort(64),
		Workloads.HPL(8, 96),
		Workloads.NPBCG(64, 1),
		Workloads.NPBFT(64),
		Workloads.NPBLU(4, 24, 1),
		Workloads.NPBMG(64, 1),
		Workloads.NPBIS(64),
		Workloads.GraphX("PR", 64),
		Workloads.SparkKMeans(256),
		Workloads.SparkBayes(256),
		Workloads.Random(64, 100),
	}
	for _, g := range gens {
		g.Reset(1)
		if _, ok := g.Next(); !ok {
			t.Fatalf("%s produced no accesses", g.Name())
		}
		if g.FootprintPages() <= 0 {
			t.Fatalf("%s has no footprint", g.Name())
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := Experiments()
	if len(all) != 23 {
		t.Fatalf("experiments = %d, want 23 (breakdown + 4 tables + 17 figures + baselines)", len(all))
	}
	for _, e := range all {
		if _, ok := ExperimentByID(e.ID); !ok {
			t.Fatalf("ByID(%s) failed", e.ID)
		}
	}
	if _, ok := ExperimentByID("fig99"); ok {
		t.Fatal("bogus ID resolved")
	}
}

func TestRunExperimentRendersTable(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(context.Background(), "fig2", ExperimentOptions{Seed: 1, Quick: true}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ladder") || !strings.Contains(out, "LSP") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	err := RunExperiment(context.Background(), "nope", ExperimentOptions{}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error does not name the ID: %v", err)
	}
}

func TestHoPPWithCustomParams(t *testing.T) {
	p := DefaultParams()
	p.EnableRSP = false
	p.Policy.Intensity = 2
	sys := HoPPWith(p)
	met, err := Run(context.Background(), sys, Workloads.Sequential(512, 2), 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if met.InjectedHits == 0 {
		t.Fatal("custom-params HoPP injected nothing")
	}
}

// Bad HoPP params come back from Run as an error naming the field, never
// a panic; the bounds themselves run, and Bulk's fields count only with
// Bulk on.
// hopp.Run refuses a local-memory fraction outside [0, 1) instead of
// running it as all-local.
func TestRunRejectsBadFrac(t *testing.T) {
	for _, frac := range []float64{-0.5, math.NaN(), 1, 1.5, math.Inf(1)} {
		met, err := Run(context.Background(), HoPP(), Workloads.Sequential(256, 2), frac, 1)
		if err == nil {
			t.Errorf("frac %g: Run ran (%d major faults), want an error", frac, met.MajorFaults)
		}
	}
	if _, err := Run(context.Background(), HoPP(), Workloads.Sequential(256, 2), 0.5, 1); err != nil {
		t.Fatalf("frac 0.5: %v", err)
	}
}

func TestRunRejectsBadHoPPParams(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Params)
		bad  bool
	}{
		{"HistoryLen 1", func(p *Params) { p.HistoryLen = 1 }, true},
		{"HistoryLen -3", func(p *Params) { p.HistoryLen = -3 }, true},
		{"StreamEntries 65", func(p *Params) { p.StreamEntries = 65 }, true},
		{"DeltaStream -5", func(p *Params) { p.DeltaStream = -5 }, true},
		{"MaxRippleStride -1", func(p *Params) { p.MaxRippleStride = -1 }, true},
		{"Policy.Intensity -2", func(p *Params) { p.Policy.Intensity = -2 }, true},
		{`Algorithm "bogus"`, func(p *Params) { p.Algorithm = "bogus" }, true},
		{"Policy.Alpha -3", func(p *Params) { p.Policy.Alpha = -3 }, true},
		{"Policy.Alpha 1", func(p *Params) { p.Policy.Alpha = 1 }, true},
		{"Policy.Alpha NaN", func(p *Params) { p.Policy.Alpha = math.NaN() }, true},
		{"Policy.MaxOffset -5", func(p *Params) { p.Policy.MaxOffset = -5 }, true},
		{"Policy.MaxOffset NaN", func(p *Params) { p.Policy.MaxOffset = math.NaN() }, true},
		{"Policy.InitialOffset -8", func(p *Params) { p.Policy.InitialOffset = -8 }, true},
		{"Policy.InitialOffset 0.5", func(p *Params) { p.Policy.InitialOffset = 0.5 }, true},
		{"Policy.TMax below Policy.TMin", func(p *Params) { p.Policy.TMin, p.Policy.TMax = vclock.Millisecond, vclock.Millisecond-1 }, true},
		{"Bulk.Pages -4", func(p *Params) { p.Bulk.Enable, p.Bulk.Pages = true, -4 }, true},
		{"Bulk.StreamLength -1", func(p *Params) { p.Bulk.Enable, p.Bulk.StreamLength = true, -1 }, true},
		{"Bulk.MinRemoteFrac -0.5", func(p *Params) { p.Bulk.Enable, p.Bulk.MinRemoteFrac = true, -0.5 }, true},
		{"Bulk.MinRemoteFrac 1.5", func(p *Params) { p.Bulk.Enable, p.Bulk.MinRemoteFrac = true, 1.5 }, true},
		{"Bulk.MinRemoteFrac NaN", func(p *Params) { p.Bulk.Enable, p.Bulk.MinRemoteFrac = true, math.NaN() }, true},
		{"HistoryLen 2", func(p *Params) { p.HistoryLen = 2 }, false},
		{"HistoryLen 64", func(p *Params) { p.HistoryLen = 64 }, false},
		{"StreamEntries 1", func(p *Params) { p.StreamEntries = 1 }, false},
		{"StreamEntries 64", func(p *Params) { p.StreamEntries = 64 }, false},
		{"DeltaStream 1", func(p *Params) { p.DeltaStream = 1 }, false},
		{"Policy.Intensity 1", func(p *Params) { p.Policy.Intensity = 1 }, false},
		{"Policy.Alpha 0.5", func(p *Params) { p.Policy.Alpha = 0.5 }, false},
		{"Policy.MaxOffset 1", func(p *Params) { p.Policy.MaxOffset = 1 }, false},
		{"Policy.InitialOffset 1000", func(p *Params) { p.Policy.Adaptive, p.Policy.InitialOffset = false, 1000 }, false},
		{"Policy.TMax equal to Policy.TMin", func(p *Params) { p.Policy.TMin, p.Policy.TMax = vclock.Millisecond, vclock.Millisecond }, false},
		{`Algorithm "three-tier"`, func(p *Params) { p.Algorithm = "three-tier" }, false},
		{`Algorithm "markov"`, func(p *Params) { p.Algorithm = "markov" }, false},
		{"Bulk.Pages 1", func(p *Params) { p.Bulk.Enable, p.Bulk.Pages = true, 1 }, false},
		{"Bulk.StreamLength 1", func(p *Params) { p.Bulk.Enable, p.Bulk.StreamLength = true, 1 }, false},
		{"Bulk.MinRemoteFrac 1", func(p *Params) { p.Bulk.Enable, p.Bulk.MinRemoteFrac = true, 1 }, false},
		{"Bulk.Pages -4 with Bulk off", func(p *Params) { p.Bulk.Pages = -4 }, false},
	} {
		p := DefaultParams()
		c.set(&p)
		_, err := Run(context.Background(), HoPPWith(p), Workloads.Sequential(512, 2), 0.5, 1)
		if c.bad && (err == nil || !strings.Contains(err.Error(), c.name)) {
			t.Errorf("%s: Run error = %v, want one naming %q", c.name, err, c.name)
		}
		if !c.bad && err != nil {
			t.Errorf("%s: Run error = %v, want a run", c.name, err)
		}
	}
}

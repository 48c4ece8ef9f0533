package hopp

import (
	"bytes"
	"context"
	"strings"
	"testing"
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

// Bad HoPP params come back from Run as an error naming the field; the
// bounds themselves run.
func TestRunRejectsBadHoPPParams(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Params)
		bad  bool
	}{
		{"HistoryLen 1", func(p *Params) { p.HistoryLen = 1 }, true},
		{"HistoryLen -3", func(p *Params) { p.HistoryLen = -3 }, true},
		{"StreamEntries 65", func(p *Params) { p.StreamEntries = 65 }, true},
		{"HistoryLen 2", func(p *Params) { p.HistoryLen = 2 }, false},
		{"HistoryLen 64", func(p *Params) { p.HistoryLen = 64 }, false},
		{"StreamEntries 1", func(p *Params) { p.StreamEntries = 1 }, false},
		{"StreamEntries 64", func(p *Params) { p.StreamEntries = 64 }, false},
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

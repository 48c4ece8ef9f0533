package sim

import (
	"context"
	"testing"

	"hopp/internal/core"
	"hopp/internal/workload"
)

// TestSmartEvictionReducesChurn validates §IV's trace-informed eviction
// end to end: on a workload with a frequently re-read hot set plus a
// streaming scan, under the kernel's approximate (lazy) LRU, feeding MC
// hotness into reclaim keeps the hot set resident — fewer evictions,
// fewer refetches, faster completion.
func TestSmartEvictionReducesChurn(t *testing.T) {
	// OMP-KMeans: streaming points plus a frequently re-read centroid
	// block. Lazy LRU cannot tell the centroids are hot; the MC trace can.
	gen := workload.NewOMPKMeans(1024, 3)

	run := func(smart bool) (Metrics, uint64, uint64) {
		p := core.DefaultParams()
		p.SmartEviction = smart
		sys := HoPPWith(p)
		if smart {
			sys.Name = "HoPP-smartevict"
		}
		cfg := Config{System: sys, LocalMemoryFrac: 0.5, Seed: 1, LazyLRU: true}
		m := MustNew(cfg, gen)
		met, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		vs := m.vm.Stats()
		return met, vs.Evictions, vs.AdvisorRescues
	}

	plain, plainEvict, plainRescues := run(false)
	smart, smartEvict, smartRescues := run(true)

	if plainRescues != 0 {
		t.Fatal("advisor active without SmartEviction")
	}
	if smartRescues == 0 {
		t.Fatal("advisor never rescued a page")
	}
	if smartEvict >= plainEvict {
		t.Fatalf("smart eviction did not reduce churn: %d vs %d evictions", smartEvict, plainEvict)
	}
	if smart.CompletionTime > plain.CompletionTime {
		t.Fatalf("smart eviction slowed the run: %v vs %v", smart.CompletionTime, plain.CompletionTime)
	}
	if smart.RemoteWrites >= plain.RemoteWrites {
		t.Fatalf("smart eviction did not cut writeback traffic: %d vs %d",
			smart.RemoteWrites, plain.RemoteWrites)
	}
	t.Logf("plain: evictions=%d ct=%v; smart: evictions=%d ct=%v (rescues=%d)",
		plainEvict, plain.CompletionTime, smartEvict, smart.CompletionTime, smartRescues)
}

// TestSmartEvictionNeutralUnderExactLRU documents the flip side: with
// this simulator's exact LRU (which already has perfect recency), the
// advisor cannot help — §IV's win exists precisely because real kernels
// approximate.
func TestSmartEvictionNeutralUnderExactLRU(t *testing.T) {
	gen := workload.NewOMPKMeans(1024, 3)
	p := core.DefaultParams()
	p.SmartEviction = true
	cfg := Config{System: HoPPWith(p), LocalMemoryFrac: 0.5, Seed: 1} // exact LRU
	met, err := Run(context.Background(), cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(context.Background(), Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1}, gen)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(met.CompletionTime) / float64(base.CompletionTime)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("advisor changed exact-LRU performance by %.0f%%", (ratio-1)*100)
	}
}

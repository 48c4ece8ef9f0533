package sim

import (
	"context"
	"testing"

	"hopp/internal/proto"
	"hopp/internal/workload"
)

// TestPrototypeMatchesDesign validates the §V emulation argument end to
// end: running HoPP through the HMTT-based software pipeline yields
// prefetch quality equivalent to the §III hardware design.
func TestPrototypeMatchesDesign(t *testing.T) {
	gen := workload.NewOMPKMeans(1024, 3)
	base := Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1}

	design, err := Run(context.Background(), base, gen)
	if err != nil {
		t.Fatal(err)
	}
	protoCfg := base
	protoCfg.UsePrototype = true
	protoMet, err := Run(context.Background(), protoCfg, gen)
	if err != nil {
		t.Fatal(err)
	}

	if d := protoMet.Coverage() - design.Coverage(); d < -0.05 || d > 0.05 {
		t.Fatalf("prototype coverage %.3f diverges from design %.3f",
			protoMet.Coverage(), design.Coverage())
	}
	if protoMet.PrefetcherAccuracy() < 0.9 {
		t.Fatalf("prototype accuracy %.3f < 0.9", protoMet.PrefetcherAccuracy())
	}
	// The prototype pays full-trace bandwidth, far above the design's
	// hot-page-only cost (§V's motivation for writing to DRAM 1).
	if protoMet.HPDBandwidth < 10*design.HPDBandwidth {
		t.Fatalf("prototype trace bandwidth %.4f not ≫ design %.4f",
			protoMet.HPDBandwidth, design.HPDBandwidth)
	}
}

// TestPrototypeSurvivesCaptureOverflow injects a tiny HMTT ring: records
// drop, coverage degrades, but the system keeps functioning — the
// graceful-degradation property of trace-driven prefetching (a missed
// hot page is a missed opportunity, never a correctness problem).
func TestPrototypeSurvivesCaptureOverflow(t *testing.T) {
	gen := workload.NewSequential(1024, 3)
	cfg := Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1,
		UsePrototype: true, Proto: proto.Config{CaptureRecords: 8}}
	met, err := Run(context.Background(), cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if met.Accesses == 0 || met.CompletionTime <= 0 {
		t.Fatal("run did not complete")
	}
	full := Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1, UsePrototype: true}
	fullMet, err := Run(context.Background(), full, gen)
	if err != nil {
		t.Fatal(err)
	}
	if met.InjectedHits > fullMet.InjectedHits {
		t.Fatalf("overflowing ring produced MORE injected hits (%d > %d)?",
			met.InjectedHits, fullMet.InjectedHits)
	}
}

package sim

import (
	"context"
	"testing"

	"hopp/internal/core"
	"hopp/internal/workload"
)

func hoppMarkov() System {
	p := core.DefaultParams()
	p.Algorithm = core.AlgoMarkov
	s := HoPPWith(p)
	s.Name = "HoPP-markov"
	return s
}

// TestMarkovAlternativeEndToEnd runs the pluggable delta-correlation
// algorithm through the full machine: on regular streams it should be a
// competent prefetcher (the point of §III-D's "larger design space" —
// the framework is algorithm-agnostic), while the paper's three-tier
// cascade remains the better generalist.
func TestMarkovAlternativeEndToEnd(t *testing.T) {
	ctx := context.Background()
	base := Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1}
	markovCfg := base
	markovCfg.System = hoppMarkov()

	seqGen := workload.NewSequential(1024, 3)
	markov, err := Run(ctx, markovCfg, seqGen)
	if err != nil {
		t.Fatal(err)
	}
	if markov.InjectedHits == 0 {
		t.Fatal("markov algorithm injected nothing")
	}
	if markov.PrefetcherAccuracy() < 0.9 {
		t.Fatalf("markov accuracy %.3f < 0.9 on a clean stream", markov.PrefetcherAccuracy())
	}

	// On the ripple-heavy multigrid workload both algorithms must be
	// competent. Empirically the delta-correlation table *beats* the
	// cascade here (it memorizes the exact wiggle sequences where RSP
	// only recognizes the envelope) — evidence for the paper's own claim
	// that the full trace enables algorithms beyond the three-tier
	// proposal ("advanced solutions like machine learning-based ones can
	// also be enabled by full trace", §III-D1). The cascade's edge is
	// being stateless-simple and robust, not maximal.
	mg := workload.NewNPBMG(1024, 2)
	three, err := Run(ctx, base, mg)
	if err != nil {
		t.Fatal(err)
	}
	mkv, err := Run(ctx, markovCfg, mg)
	if err != nil {
		t.Fatal(err)
	}
	if three.Coverage() < 0.7 {
		t.Fatalf("three-tier coverage %.3f < 0.7 on MG", three.Coverage())
	}
	if mkv.Coverage() < 0.7 {
		t.Fatalf("markov coverage %.3f < 0.7 on MG", mkv.Coverage())
	}
	t.Logf("NPB-MG: three-tier cov=%.3f acc=%.3f; markov cov=%.3f acc=%.3f",
		three.Coverage(), three.PrefetcherAccuracy(), mkv.Coverage(), mkv.PrefetcherAccuracy())
}

package sim

import (
	"context"
	"testing"

	"hopp/internal/rdma"
	"hopp/internal/vclock"
	"hopp/internal/vmm"
	"hopp/internal/workload"
)

// TestSlowFabricHurtsEveryone injects a 10x slower, jittery link: all
// systems degrade, and HoPP still leads (its asynchrony hides latency
// but cannot beat physics).
func TestSlowFabricHurtsEveryone(t *testing.T) {
	gen := workload.NewSequential(1024, 3)
	slow := rdma.Config{BaseLatency: 34 * vclock.Microsecond, BytesPerNS: 0.7, JitterFrac: 0.5}

	fastFabric, err := Run(context.Background(), Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1}, gen)
	if err != nil {
		t.Fatal(err)
	}
	slowHopp, err := Run(context.Background(), Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1, Fabric: slow}, gen)
	if err != nil {
		t.Fatal(err)
	}
	slowFast, err := Run(context.Background(), Config{System: Fastswap(), LocalMemoryFrac: 0.5, Seed: 1, Fabric: slow}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if slowHopp.CompletionTime <= fastFabric.CompletionTime {
		t.Fatal("10x slower fabric did not slow HoPP")
	}
	if slowHopp.CompletionTime >= slowFast.CompletionTime {
		t.Fatalf("HoPP (%v) lost to Fastswap (%v) on the slow fabric",
			slowHopp.CompletionTime, slowFast.CompletionTime)
	}
}

// TestOffsetAdaptsToSlowFabric: on a slow link, the adaptive offset must
// end up larger than on a fast one — the §III-E timeliness loop reacting
// to latency volatility.
func TestOffsetAdaptsToSlowFabric(t *testing.T) {
	gen := workload.NewSequential(2048, 3)
	run := func(fabric rdma.Config) uint64 {
		m := MustNew(Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1, Fabric: fabric}, gen)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return trainerStats(m).OffsetRaises
	}
	fastRaises := run(rdma.Config{})
	slowRaises := run(rdma.Config{BaseLatency: 34 * vclock.Microsecond, BytesPerNS: 0.7})
	if slowRaises <= fastRaises {
		t.Fatalf("slow fabric raised the offset %d times, fast %d — controller not reacting",
			slowRaises, fastRaises)
	}
}

// TestCustomCostModelPlumbs verifies nonstandard cost constants reach
// the fault path (a 10x prefetch-hit cost shows up in completion time).
func TestCustomCostModelPlumbs(t *testing.T) {
	gen := workload.NewSequential(1024, 2)
	cheap, err := Run(context.Background(), Config{System: Fastswap(), LocalMemoryFrac: 0.5, Seed: 1}, gen)
	if err != nil {
		t.Fatal(err)
	}
	costs := vmm.DefaultCosts()
	costs.SwapCacheOp *= 20
	dear, err := Run(context.Background(), Config{System: Fastswap(), LocalMemoryFrac: 0.5, Seed: 1, Costs: costs}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if dear.CompletionTime <= cheap.CompletionTime {
		t.Fatal("inflated swapcache cost had no effect")
	}
}

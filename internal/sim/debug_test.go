package sim

import (
	"context"
	"testing"

	"hopp/internal/workload"
)

// TestDiagSequential prints the full HoPP pipeline state for a
// sequential run; it never fails and exists to debug pipeline stalls.
func TestDiagSequential(t *testing.T) {
	gen := workload.NewSequential(512, 3)
	m := MustNew(Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1}, gen)
	met, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := m.HoPPTrainerStats()
	xs, _ := m.HoPPExecStats()
	mcs, _ := m.MCStats()
	t.Logf("metrics: faults=%d minor=%d swapHits=%d injHits=%d late=%d issued=%d evicted=%d reads=%d writes=%d",
		met.MajorFaults, met.MinorFault, met.SwapCacheHits, met.InjectedHits, met.LateHits,
		met.PrefetchIssued, met.PrefetchEvicted, met.RemoteReads, met.RemoteWrites)
	local, _ := Run(context.Background(), Config{System: NoPrefetch(), Seed: 1}, gen)
	t.Logf("ct=%v local=%v norm=%.3f faultStall=%v prefStall=%v cacheHits=%d dramHits=%d",
		met.CompletionTime, local.CompletionTime, met.NormalizedPerformance(local),
		met.FaultStall, met.PrefetchStall, met.CacheHits, met.DRAMHits)
	t.Logf("trainer: %+v", ts)
	t.Logf("exec: %+v", xs)
	t.Logf("mc: %+v", mcs)
}

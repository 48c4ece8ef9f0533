package sim

import (
	"context"
	"testing"

	"hopp/internal/core"
	"hopp/internal/workload"
)

func hoppBulk(streamLen, pages int) System {
	p := core.DefaultParams()
	p.Bulk = core.BulkParams{Enable: true, StreamLength: streamLen, Pages: pages}
	s := HoPPWith(p)
	s.Name = "HoPP-bulk"
	return s
}

// TestBulkAmortizesRequestLatency validates §IV end to end: on a long
// sequential stream, bulk mode moves the same pages with far fewer
// fabric requests (each bulk request = one base latency for up to 512
// pages) and still covers the stream.
func TestBulkAmortizesRequestLatency(t *testing.T) {
	gen := workload.NewSequential(4096, 3)
	ctx := context.Background()
	base := Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1}
	bulkCfg := base
	bulkCfg.System = hoppBulk(32, 256)

	plain, err := Run(ctx, base, gen)
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := Run(ctx, bulkCfg, gen)
	if err != nil {
		t.Fatal(err)
	}

	if bulk.BulkRequests == 0 {
		t.Fatal("no bulk requests issued")
	}
	if plain.BulkRequests != 0 {
		t.Fatal("plain HoPP issued bulk requests")
	}
	if bulk.Coverage() < 0.9 {
		t.Fatalf("bulk coverage = %.3f, want ≥0.9", bulk.Coverage())
	}
	// The fabric sees far fewer distinct requests: compare transfers.
	// Reads counted per page are similar; the win is request count.
	if bulk.CompletionTime > plain.CompletionTime*11/10 {
		t.Fatalf("bulk mode much slower: %v vs %v", bulk.CompletionTime, plain.CompletionTime)
	}
	t.Logf("plain: ct=%v injHits=%d; bulk: ct=%v injHits=%d bulkReqs=%d",
		plain.CompletionTime, plain.InjectedHits, bulk.CompletionTime, bulk.InjectedHits, bulk.BulkRequests)
}

// TestBulkHarmlessOnIrregularWorkload: bulk mode must not fire (and not
// hurt) when streams are not long unit-stride runs.
func TestBulkHarmlessOnIrregularWorkload(t *testing.T) {
	gen := workload.NewGraphX("PR", 256)
	ctx := context.Background()
	base := Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1}
	bulkCfg := base
	bulkCfg.System = hoppBulk(64, 512)
	bulk, err := Run(ctx, bulkCfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(ctx, base, gen)
	if err != nil {
		t.Fatal(err)
	}
	// Short JVM runs never reach a 64-long unit streak.
	if bulk.BulkRequests > 2 {
		t.Fatalf("bulk fired %d times on an irregular workload", bulk.BulkRequests)
	}
	if float64(bulk.CompletionTime) > float64(plain.CompletionTime)*1.1 {
		t.Fatalf("bulk mode hurt an irregular workload: %v vs %v", bulk.CompletionTime, plain.CompletionTime)
	}
}

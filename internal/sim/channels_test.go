package sim

import (
	"context"
	"testing"

	"hopp/internal/workload"
)

// TestMultiChannelEquivalentQuality verifies the §III-B claim end to
// end: with interleaved channels and the reduced threshold, HoPP's
// prefetch quality survives the repeated extractions (the trainer
// deduplicates them), and with partitioned channels the merged hot page
// stream trains just as well as a single controller's.
func TestMultiChannelEquivalentQuality(t *testing.T) {
	gen := workload.NewSequential(1024, 3)
	base := Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1}

	single, err := Run(context.Background(), base, gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		channels    int
		interleaved bool
	}{
		{"2ch-interleaved", 2, true},
		{"4ch-interleaved", 4, true},
		{"2ch-partitioned", 2, false},
	} {
		cfg := base
		cfg.MCChannels = tc.channels
		cfg.MCInterleaved = tc.interleaved
		met, err := Run(context.Background(), cfg, gen)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if met.Coverage() < single.Coverage()-0.05 {
			t.Errorf("%s: coverage %.3f fell far below single-channel %.3f",
				tc.name, met.Coverage(), single.Coverage())
		}
		if met.PrefetcherAccuracy() < 0.9 {
			t.Errorf("%s: accuracy %.3f < 0.9", tc.name, met.PrefetcherAccuracy())
		}
	}
}

// TestInterleavedChannelsDeduplicated checks that the trainer actually
// absorbs the repeated extractions instead of double-prefetching.
func TestInterleavedChannelsDeduplicated(t *testing.T) {
	gen := workload.NewSequential(512, 3)
	cfg := Config{System: HoPP(), LocalMemoryFrac: 0.5, Seed: 1,
		MCChannels: 4, MCInterleaved: true}
	m := MustNew(cfg, gen)
	met, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := m.HoPPTrainerStats()
	if ts.Duplicates == 0 {
		t.Fatal("interleaved channels produced no duplicate extractions to dedup")
	}
	xs, _ := m.HoPPExecStats()
	if xs.SkipInflight+xs.SkipResident == 0 && met.PrefetchIssued > 2*uint64(gen.FootprintPages()) {
		t.Fatal("duplicates turned into duplicate prefetches")
	}
}

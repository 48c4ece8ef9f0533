package core

import (
	"math/rand"
	"testing"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// hotPage is one record of a replayed hot page stream.
type hotPage struct {
	pid memsim.PID
	vpn memsim.VPN
}

// mixedHotPages builds a deterministic hot page stream of n records
// interleaving the shapes the trainer meets: a sequential stream and a
// ladder (rows of four pages, 64 pages apart) on PID 1, a ripple
// (forward with out-of-order hops) and random churn on PID 2.
func mixedHotPages(n int) []hotPage {
	rng := rand.New(rand.NewSource(1))
	out := make([]hotPage, 0, n)
	var seq, ladder, ripple int64
	for len(out) < n {
		switch r := rng.Intn(20); {
		case r < 6:
			seq++
			out = append(out, hotPage{1, memsim.VPN(1<<20 + seq)})
		case r < 11:
			ladder++
			out = append(out, hotPage{1, memsim.VPN(1<<24 + ladder/4*64 + ladder%4)})
		case r < 16:
			ripple++
			out = append(out, hotPage{2, memsim.VPN(1<<22 + ripple + int64(rng.Intn(5)) - 2)})
		default:
			out = append(out, hotPage{2, memsim.VPN(rng.Int63n(1 << 30))})
		}
	}
	return out
}

// BenchmarkTrainerObserve replays mixedHotPages through one trainer
// with the paper's parameters; ns/op is the cost of one Observe.
func BenchmarkTrainerObserve(b *testing.B) {
	pages := mixedHotPages(1 << 16)
	tr := NewTrainer(DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hp := pages[i&(len(pages)-1)]
		tr.Observe(vclock.Time(i), hp.pid, hp.vpn)
	}
}

// The benchmark's replay gives the same predictions, counters and
// offsets as the linear-scan reference, under the paper's parameters
// and the small tables and short histories that stress eviction and
// SSP ties, with feedback on every prediction.
func TestTrainerMatchesNaiveOnReplay(t *testing.T) {
	pages := mixedHotPages(20000)
	for _, p := range []struct{ entries, history int }{{64, 16}, {2, 16}, {8, 5}, {64, 4}} {
		params := DefaultParams()
		params.StreamEntries, params.HistoryLen = p.entries, p.history
		tr, ref := NewTrainer(params), newNaiveTrainer(params)
		for i, hp := range pages {
			got, gotOK := tr.Observe(vclock.Time(i), hp.pid, hp.vpn)
			want, wantOK := ref.Observe(vclock.Time(i), hp.pid, hp.vpn)
			if d := diffPrediction(got, gotOK, want, wantOK); d != "" {
				t.Fatalf("%+v record %d %+v: %s", p, i, hp, d)
			}
			if gotOK {
				lead := vclock.Duration(i%7) * vclock.Millisecond
				tr.Feedback(got.Stream, lead)
				ref.Feedback(want.Stream, lead)
				checkOffset(t, i, tr, ref, got.Stream)
			}
		}
		if tr.Stats() != ref.Stats() {
			t.Fatalf("%+v: stats %+v, naive %+v", p, tr.Stats(), ref.Stats())
		}
	}
}

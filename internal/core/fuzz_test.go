package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// Property: the trainer never panics and never predicts out-of-range
// pages, no matter how adversarial the hot page stream — including VPNs
// at the bottom and top of the address space and random PIDs.
func TestTrainerRobustnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		params := DefaultParams()
		params.Policy.Intensity = rng.Intn(4) + 1
		if rng.Intn(2) == 0 {
			params.Bulk = BulkParams{Enable: true, StreamLength: rng.Intn(8) + 2, Pages: rng.Intn(64) + 8}
		}
		tr := NewTrainer(params)
		for i := 0; i < 2000; i++ {
			var vpn memsim.VPN
			switch rng.Intn(4) {
			case 0: // near zero
				vpn = memsim.VPN(rng.Intn(20))
			case 1: // near the 40-bit top
				vpn = memsim.MaxVPN - memsim.VPN(rng.Intn(20))
			case 2: // random walk
				vpn = memsim.VPN(rng.Intn(1 << 20))
			default: // streaming
				vpn = memsim.VPN(1000 + i)
			}
			pid := memsim.PID(rng.Intn(4))
			pred, ok := tr.Observe(vclock.Time(i)*100, pid, vpn)
			if !ok {
				continue
			}
			if len(pred.Pages) == 0 {
				return false
			}
			for _, p := range pred.Pages {
				if p == 0 || p > memsim.MaxVPN {
					return false
				}
			}
			if pred.PID != pid {
				return false
			}
			// Random feedback, including stale refs.
			tr.Feedback(pred.Stream, vclock.Duration(rng.Int63n(int64(10*vclock.Millisecond))))
			tr.Feedback(StreamRef{Index: rng.Intn(128) - 32, Gen: uint64(rng.Intn(100))}, 0)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: the Markov predictor has the same robustness guarantees.
func TestMarkovRobustnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMarkov(DefaultParams())
		for i := 0; i < 2000; i++ {
			vpn := memsim.VPN(rng.Int63n(int64(memsim.MaxVPN)) + 1)
			if rng.Intn(2) == 0 {
				vpn = memsim.VPN(5000 + i%97) // reuse-heavy
			}
			pred, ok := m.Observe(vclock.Time(i)*100, memsim.PID(rng.Intn(3)), vpn)
			if !ok {
				continue
			}
			for _, p := range pred.Pages {
				if p == 0 || p > memsim.MaxVPN {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: offsets always stay within [1, MaxOffset] under arbitrary
// feedback sequences.
func TestOffsetBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTrainer(DefaultParams())
		preds := feed(tr, 1, seqVPNs(0, 1, 17))
		if len(preds) == 0 {
			return false
		}
		ref := preds[0].Stream
		for i := 0; i < 500; i++ {
			tr.Feedback(ref, vclock.Duration(rng.Int63n(int64(20*vclock.Millisecond))))
			o, ok := tr.OffsetOf(ref)
			if !ok || o < 1 || o > tr.params.Policy.MaxOffset {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: executor accounting identities hold under arbitrary
// interleavings of submit/land/hit/evict.
func TestExecutorAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := newFakeBackend()
		tr := NewTrainer(DefaultParams())
		x := NewExecutor(b, tr, tr.params)
		live := map[memsim.PageKey]bool{}
		for i := 0; i < 1000; i++ {
			key := memsim.PageKey{PID: 1, VPN: memsim.VPN(rng.Intn(256) + 1)}
			switch rng.Intn(4) {
			case 0:
				x.Submit(0, predFor(1, Tier(rng.Intn(3)+1), key.VPN))
				live[key] = true
			case 1:
				b.land(key, vclock.Time(i)*100)
			case 2:
				x.OnFirstHit(key, vclock.Time(i)*100)
			case 3:
				x.OnEvicted(key)
			}
			s := x.Stats()
			if s.Hits+s.LateHits > s.Issued+s.InjectedInPlace {
				return false
			}
			if s.Evicted > s.Arrived {
				return false
			}
			if a := s.Accuracy(); a < 0 || a > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// fuzzWidth is the bucket width the stream index uses at Δ_stream 64:
// pages at multiples of it sit on bucket edges.
const fuzzWidth = 64

// FuzzTrainerMatchesNaive drives the trainer and the Markov predictor
// beside the linear-scan references in naive_test.go, Observe for
// Observe and Feedback for Feedback, and fails on the first prediction,
// counter or offset that differs. data[0] picks the configuration:
// StreamEntries 1, 2 or 64; Δ_stream 1 or 64; bulk prefetching on or
// off; history length 16, 4 or 5 (the short ones make SSP's ties
// common). Each later op byte picks a PID (1–3) and an action: a step
// from that PID's last page by a signed byte, a page near 0, near
// MaxVPN or on a bucket edge, a random page, a repeat, feedback on the
// last prediction, or feedback on an arbitrary (often stale) ref.
func FuzzTrainerMatchesNaive(f *testing.F) {
	for _, seed := range trainerFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		c := data[0]
		params := DefaultParams()
		params.StreamEntries = [3]int{1, 2, 64}[c%3]
		params.DeltaStream = [2]int64{1, 64}[c/3%2]
		if c/6%2 == 1 {
			params.Bulk = BulkParams{Enable: true, StreamLength: 3, Pages: 8}
		}
		params.HistoryLen = [3]int{16, 4, 5}[c/12%3]
		if c/36%2 == 1 {
			params.Policy.Intensity = 3
		}
		tr, ref := NewTrainer(params), newNaiveTrainer(params)
		mk, mref := NewMarkov(params), newNaiveMarkov(params)

		last := [4]memsim.VPN{0, 1000, 1000, 1000}
		var lastPred StreamRef
		ops := data[1:]
		arg := func(i *int) byte {
			if *i+1 >= len(ops) {
				return 0
			}
			*i++
			return ops[*i]
		}
		for i := 0; i < len(ops); i++ {
			o := ops[i]
			pid := memsim.PID(1 + (o>>3)%3)
			now := vclock.Time(i) * 1000
			var v int64
			switch o % 8 {
			case 0:
				v = int64(last[pid]) + int64(int8(arg(&i)))
			case 1:
				v = int64(arg(&i) % 70)
			case 2:
				v = int64(memsim.MaxVPN) - int64(arg(&i)%70)
			case 3:
				v = int64(arg(&i))*fuzzWidth + int64(arg(&i)%5) - 2
			case 4:
				v = int64(arg(&i))<<16 | int64(arg(&i))<<8 | int64(arg(&i))
			case 5:
				v = int64(last[pid])
			case 6:
				lead := vclock.Duration(arg(&i)) * 50 * vclock.Microsecond
				tr.Feedback(lastPred, lead)
				ref.Feedback(lastPred, lead)
				checkOffset(t, i, tr, ref, lastPred)
				continue
			case 7:
				r := StreamRef{Index: int(arg(&i)%70) - 3, Gen: uint64(arg(&i) % 8)}
				tr.Feedback(r, 0)
				ref.Feedback(r, 0)
				checkOffset(t, i, tr, ref, r)
				continue
			}
			// Hot pages carry RPT-translated VPNs, so they stay in
			// [0, MaxVPN].
			vpn := memsim.VPN(min(max(v, 0), int64(memsim.MaxVPN)))
			last[pid] = vpn
			got, gotOK := tr.Observe(now, pid, vpn)
			want, wantOK := ref.Observe(now, pid, vpn)
			if d := diffPrediction(got, gotOK, want, wantOK); d != "" {
				t.Fatalf("op %d: trainer Observe(%d, %d): %s", i, pid, vpn, d)
			}
			if gotOK {
				lastPred = got.Stream
				checkOffset(t, i, tr, ref, lastPred)
			}
			if tr.Stats() != ref.Stats() {
				t.Fatalf("op %d: trainer stats %+v, naive %+v", i, tr.Stats(), ref.Stats())
			}
			got, gotOK = mk.Observe(now, pid, vpn)
			want, wantOK = mref.Observe(now, pid, vpn)
			if d := diffPrediction(got, gotOK, want, wantOK); d != "" {
				t.Fatalf("op %d: markov Observe(%d, %d): %s", i, pid, vpn, d)
			}
			if mk.Stats() != mref.Stats() {
				t.Fatalf("op %d: markov stats %+v, naive %+v", i, mk.Stats(), mref.Stats())
			}
		}
	})
}

func checkOffset(t *testing.T, op int, tr *Trainer, ref *naiveTrainer, r StreamRef) {
	t.Helper()
	got, gotOK := tr.OffsetOf(r)
	want, wantOK := ref.OffsetOf(r)
	if got != want || gotOK != wantOK {
		t.Fatalf("op %d: OffsetOf(%+v) = %v,%v, naive %v,%v", op, r, got, gotOK, want, wantOK)
	}
}

// diffPrediction describes how two Observe results differ, or returns
// "" when they agree.
func diffPrediction(got Prediction, gotOK bool, want Prediction, wantOK bool) string {
	if gotOK != wantOK {
		return fmt.Sprintf("predicted %v, naive %v", gotOK, wantOK)
	}
	if !gotOK {
		return ""
	}
	if got.Stream != want.Stream || got.Tier != want.Tier || got.PID != want.PID || got.Bulk != want.Bulk || !slices.Equal(got.Pages, want.Pages) {
		return fmt.Sprintf("prediction %+v, naive %+v", got, want)
	}
	return ""
}

// trainerFuzzSeeds are FuzzTrainerMatchesNaive's seed inputs: a stride-2
// stream, a ladder, a ripple and random churn for two PIDs under every
// configuration byte the target decodes, plus edge and feedback cases.
func trainerFuzzSeeds() [][]byte {
	var seeds [][]byte
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 72; c += 5 {
		ops := []byte{byte(c)}
		for i := 0; i < 120; i++ {
			switch pidBits := byte(i%2) << 3; i % 10 {
			case 0, 1, 2: // stride-2 stream on PID 1, ladder on PID 2
				ops = append(ops, 0|pidBits, byte([2]int8{2, int8(1 + 6*(i%3))}[i%2]))
			case 3, 4: // ripple: forward with out-of-order hops
				ops = append(ops, 0|pidBits, byte(int8([4]int8{1, 3, -1, 1}[i%4])))
			case 5:
				ops = append(ops, 4|pidBits, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			case 6:
				ops = append(ops, byte(1+rng.Intn(3))|pidBits, byte(rng.Intn(256)), byte(rng.Intn(256)))
			case 7:
				ops = append(ops, 6, byte(rng.Intn(256)))
			case 8:
				ops = append(ops, 7, byte(rng.Intn(256)), byte(rng.Intn(256)))
			default:
				ops = append(ops, 5|pidBits)
			}
		}
		seeds = append(seeds, ops)
	}
	// A bucket-edge pair at Δ_stream 64: heads at 127 and 129 are both
	// 1 from 128, and the lower index must win the tie.
	seeds = append(seeds, []byte{0, 3, 1, 4, 3, 2, 1, 3, 2, 2})
	return seeds
}

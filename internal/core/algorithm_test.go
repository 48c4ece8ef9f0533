package core

import (
	"testing"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

func feedAlgo(a Algorithm, pid memsim.PID, seq []memsim.VPN) []Prediction {
	var preds []Prediction
	for i, v := range seq {
		if p, ok := a.Observe(vclock.Time(i*1000), pid, v); ok {
			preds = append(preds, p)
		}
	}
	return preds
}

func TestMarkovLearnsConstantStride(t *testing.T) {
	m := NewMarkov(DefaultParams())
	preds := feedAlgo(m, 1, seqVPNs(100, 3, 30))
	if len(preds) == 0 {
		t.Fatal("no predictions on a constant-stride stream")
	}
	// After warmup, every prediction extrapolates by the learned delta.
	last := preds[len(preds)-1]
	if len(last.Pages) != 1 {
		t.Fatalf("pages = %v", last.Pages)
	}
	// Prediction from page 100+29·3 = 187 is 190.
	if last.Pages[0] != 190 {
		t.Fatalf("prediction = %d, want 190", last.Pages[0])
	}
}

func TestMarkovLearnsAlternatingDeltas(t *testing.T) {
	// Pattern +1, +5, +1, +5, … — no dominant stride, but a perfect
	// second-order delta correlation. The trainer's SSP can't see it;
	// Markov nails it after one period.
	m := NewMarkov(DefaultParams())
	var seq []memsim.VPN
	v := memsim.VPN(1000)
	for i := 0; i < 30; i++ {
		seq = append(seq, v)
		if i%2 == 0 {
			v += 1
		} else {
			v += 5
		}
	}
	preds := feedAlgo(m, 1, seq)
	if len(preds) < 10 {
		t.Fatalf("predictions = %d, want steady flow", len(preds))
	}
	// Verify the last few predictions are correct continuations.
	correct := 0
	seqSet := make(map[memsim.VPN]bool)
	v2 := v
	for i := 0; i < 8; i++ { // extend the true pattern
		seqSet[v2] = true
		if i%2 == 0 {
			v2 += 1
		} else {
			v2 += 5
		}
	}
	for _, s := range seq {
		seqSet[s] = true
	}
	for _, p := range preds[len(preds)-6:] {
		if seqSet[p.Pages[0]] {
			correct++
		}
	}
	if correct < 5 {
		t.Fatalf("only %d/6 recent predictions fall on the pattern", correct)
	}
}

func TestMarkovRequiresTwoObservations(t *testing.T) {
	m := NewMarkov(DefaultParams())
	// A delta context seen only once must not predict.
	if preds := feedAlgo(m, 1, []memsim.VPN{10, 11, 13, 14}); len(preds) != 0 {
		t.Fatalf("one-shot context predicted: %v", preds)
	}
}

func TestMarkovPIDSeparation(t *testing.T) {
	m := NewMarkov(DefaultParams())
	for i := 0; i < 25; i++ {
		m.Observe(0, 1, memsim.VPN(100+i*2))
		m.Observe(0, 2, memsim.VPN(100+i*7))
	}
	s := m.Stats()
	if s.StreamsCreated != 2 {
		t.Fatalf("streams = %d, want 2", s.StreamsCreated)
	}
	// Both strides learned: predict for each PID.
	p1, ok1 := m.Observe(0, 1, memsim.VPN(100+25*2))
	p2, ok2 := m.Observe(0, 2, memsim.VPN(100+25*7))
	if !ok1 || !ok2 {
		t.Fatal("per-PID streams not both predicting")
	}
	if p1.Pages[0] != memsim.VPN(100+26*2) || p2.Pages[0] != memsim.VPN(100+26*7) {
		t.Fatalf("predictions %v / %v wrong", p1.Pages, p2.Pages)
	}
}

func TestMarkovDuplicatesIgnored(t *testing.T) {
	m := NewMarkov(DefaultParams())
	m.Observe(0, 1, 50)
	m.Observe(0, 1, 50)
	if m.Stats().Duplicates != 1 {
		t.Fatalf("duplicates = %d", m.Stats().Duplicates)
	}
}

func TestMarkovName(t *testing.T) {
	if NewMarkov(DefaultParams()).Name() != "markov" {
		t.Fatal("name wrong")
	}
	if NewTrainer(DefaultParams()).Name() != "three-tier" {
		t.Fatal("trainer name wrong")
	}
}

func TestPrefetcherSelectsAlgorithm(t *testing.T) {
	b := newFakeBackend()
	p := DefaultParams()
	p.Algorithm = AlgoMarkov
	pf := NewPrefetcher(p, b)
	if _, ok := pf.Algo.(*Trainer); ok {
		t.Fatal("markov prefetcher kept a trainer")
	}
	if pf.Algo.Name() != "markov" {
		t.Fatalf("algo = %s", pf.Algo.Name())
	}
	def := NewPrefetcher(DefaultParams(), b)
	if _, ok := def.Algo.(*Trainer); !ok || def.Algo.Name() != "three-tier" {
		t.Fatal("default prefetcher not three-tier")
	}
}

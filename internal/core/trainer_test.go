package core

import (
	"strings"
	"testing"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// feed pushes a VPN sequence for one PID through the trainer, returning
// every prediction made.
func feed(t *Trainer, pid memsim.PID, seq []memsim.VPN) []Prediction {
	var preds []Prediction
	for i, v := range seq {
		if p, ok := t.Observe(vclock.Time(i*1000), pid, v); ok {
			// Pages aliases the trainer's scratch; copy before retaining.
			p.Pages = append([]memsim.VPN(nil), p.Pages...)
			preds = append(preds, p)
		}
	}
	return preds
}

func seqVPNs(start, stride int64, n int) []memsim.VPN {
	out := make([]memsim.VPN, n)
	for i := range out {
		out[i] = memsim.VPN(start + int64(i)*stride)
	}
	return out
}

func TestSimpleStreamPrediction(t *testing.T) {
	tr := NewTrainer(DefaultParams())
	preds := feed(tr, 1, seqVPNs(100, 2, 20))
	if len(preds) == 0 {
		t.Fatal("no predictions for a clean stride-2 stream")
	}
	p := preds[0]
	if p.Tier != TierSSP {
		t.Fatalf("tier = %v, want SSP", p.Tier)
	}
	// First prediction happens on the 17th page (history full at 16):
	// VPN_A = 100+16·2 = 132; offset 1 ⇒ predict 134.
	if len(p.Pages) != 1 || p.Pages[0] != 134 {
		t.Fatalf("pages = %v, want [134]", p.Pages)
	}
	if tr.Stats().Predictions[TierSSP] == 0 {
		t.Fatal("SSP prediction not counted")
	}
}

// The tier helpers count over fixed 64-entry windows, so a longer
// history is rejected at construction, naming the bound.
func TestTrainerRejectsHistoryBeyondBound(t *testing.T) {
	NewTrainer(Params{HistoryLen: 64}) // at the bound: fine
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "64") {
			t.Fatalf("NewTrainer(HistoryLen 65) panic = %q, want one naming the bound 64", msg)
		}
	}()
	NewTrainer(Params{HistoryLen: 65})
}

// The stream index keeps one bit per entry in a 64-bit mask, so both
// algorithms reject a larger table at construction, naming the bound.
func TestStreamEntriesBeyondBoundRejected(t *testing.T) {
	NewTrainer(Params{StreamEntries: 64}) // at the bound: fine
	NewMarkov(Params{StreamEntries: 64})
	for _, c := range []struct {
		name  string
		build func()
	}{
		{"NewTrainer", func() { NewTrainer(Params{StreamEntries: 65}) }},
		{"NewMarkov", func() { NewMarkov(Params{StreamEntries: 65}) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "64") {
					t.Fatalf("%s(StreamEntries 65) panic = %q, want one naming the bound 64", c.name, msg)
				}
			}()
			c.build()
		}()
	}
}

func TestHistoryMustFillBeforePredicting(t *testing.T) {
	tr := NewTrainer(DefaultParams())
	preds := feed(tr, 1, seqVPNs(0, 1, 16))
	if len(preds) != 0 {
		t.Fatalf("%d predictions before VPN_history was full", len(preds))
	}
	if p, ok := tr.Observe(0, 1, 16); !ok || p.Tier != TierSSP {
		t.Fatal("17th page should predict")
	}
}

func TestPIDSeparation(t *testing.T) {
	tr := NewTrainer(DefaultParams())
	// Two processes walk the same VPNs; streams must not merge.
	a := seqVPNs(0, 1, 18)
	for i := range a {
		tr.Observe(0, 1, a[i])
		tr.Observe(0, 2, a[i])
	}
	if tr.LiveStreams() != 2 {
		t.Fatalf("LiveStreams = %d, want 2", tr.LiveStreams())
	}
}

func TestPageClusteringSeparatesDistantStreams(t *testing.T) {
	tr := NewTrainer(DefaultParams())
	// Two interleaved streams >64 pages apart, same PID: the Δ_stream
	// clustering must keep them in separate entries and both must train.
	var preds []Prediction
	for i := 0; i < 20; i++ {
		if p, ok := tr.Observe(0, 1, memsim.VPN(1000+i*2)); ok {
			p.Pages = append([]memsim.VPN(nil), p.Pages...)
			preds = append(preds, p)
		}
		if p, ok := tr.Observe(0, 1, memsim.VPN(9000+i)); ok {
			p.Pages = append([]memsim.VPN(nil), p.Pages...)
			preds = append(preds, p)
		}
	}
	if tr.LiveStreams() != 2 {
		t.Fatalf("LiveStreams = %d, want 2", tr.LiveStreams())
	}
	sawStride2, sawStride1 := false, false
	for _, p := range preds {
		if p.Tier != TierSSP {
			continue
		}
		switch {
		case p.Pages[0] >= 9000 && p.Pages[0] < 9100:
			sawStride1 = true
		case p.Pages[0] >= 1000 && p.Pages[0] < 1100:
			sawStride2 = true
		}
	}
	if !sawStride1 || !sawStride2 {
		t.Fatalf("interleaved streams not both predicted: stride2=%v stride1=%v", sawStride2, sawStride1)
	}
}

func TestDuplicateHotPagesIgnored(t *testing.T) {
	tr := NewTrainer(DefaultParams())
	tr.Observe(0, 1, 50)
	tr.Observe(0, 1, 50)
	tr.Observe(0, 1, 50)
	if tr.Stats().Duplicates != 2 {
		t.Fatalf("Duplicates = %d, want 2", tr.Stats().Duplicates)
	}
	if tr.LiveStreams() != 1 {
		t.Fatal("duplicates created extra streams")
	}
}

func TestLadderFallsToLSP(t *testing.T) {
	params := DefaultParams()
	tr := NewTrainer(params)
	// Ladder within Δ_stream: 3 unevenly spaced streams (bases 0/10/35),
	// tread stride 1. No single stride dominates (each inter-stream
	// stride appears ⅓ of the time), so SSP must pass and LSP catch it.
	var seq []memsim.VPN
	for i := 0; i < 12; i++ {
		for _, b := range []uint64{0, 10, 35} {
			seq = append(seq, memsim.VPN(b+uint64(i)))
		}
	}
	preds := feed(tr, 1, seq)
	var lsp int
	for _, p := range preds {
		if p.Tier == TierLSP {
			lsp++
		}
		if p.Tier == TierSSP {
			t.Fatalf("SSP fired on a ladder: %+v", p)
		}
	}
	if lsp == 0 {
		t.Fatal("LSP never fired on a ladder stream")
	}
}

func TestRippleFallsToRSP(t *testing.T) {
	tr := NewTrainer(DefaultParams())
	// Ripple: stride-1 advance with out-of-order wiggles and hops that
	// defeat both a dominant stride and an exact repeating pattern, but
	// whose cumulative strides keep returning to the stream.
	wiggle := []int64{1, 1, -1, 3, 1, -2, 4, 1, 1, -1, 2, 1, -1, 3, 1, 1, -2, 3, 1, 2, -1, 1, 1, -1, 2}
	var seq []memsim.VPN
	v := int64(500)
	for _, w := range wiggle {
		v += w
		seq = append(seq, memsim.VPN(v))
	}
	preds := feed(tr, 1, seq)
	var rspN int
	for _, p := range preds {
		if p.Tier == TierRSP {
			rspN++
		}
	}
	if rspN == 0 {
		got := map[Tier]int{}
		for _, p := range preds {
			got[p.Tier]++
		}
		t.Fatalf("RSP never fired on a ripple stream (tiers: %v)", got)
	}
}

func TestTierDisabling(t *testing.T) {
	params := DefaultParams()
	params.EnableLSP, params.EnableRSP = false, false
	tr := NewTrainer(params)
	var seq []memsim.VPN
	for i := 0; i < 12; i++ {
		for _, b := range []uint64{0, 10, 35} {
			seq = append(seq, memsim.VPN(b+uint64(i)))
		}
	}
	if preds := feed(tr, 1, seq); len(preds) != 0 {
		t.Fatalf("SSP-only trainer predicted %d times on a ladder", len(preds))
	}
}

func TestIntensityProducesMorePages(t *testing.T) {
	params := DefaultParams()
	params.Policy.Intensity = 3
	tr := NewTrainer(params)
	preds := feed(tr, 1, seqVPNs(0, 4, 17))
	if len(preds) == 0 {
		t.Fatal("no prediction")
	}
	p := preds[0]
	if len(p.Pages) != 3 {
		t.Fatalf("pages = %v, want 3 pages", p.Pages)
	}
	// VPN_A = 64, stride 4, offsets 1,2,3 ⇒ 68, 72, 76.
	want := []memsim.VPN{68, 72, 76}
	for i, w := range want {
		if p.Pages[i] != w {
			t.Fatalf("pages = %v, want %v", p.Pages, want)
		}
	}
}

func TestOffsetFeedback(t *testing.T) {
	tr := NewTrainer(DefaultParams())
	preds := feed(tr, 1, seqVPNs(0, 1, 17))
	if len(preds) != 1 {
		t.Fatalf("predictions = %d", len(preds))
	}
	ref := preds[0].Stream
	o0, ok := tr.OffsetOf(ref)
	if !ok || o0 != 1 {
		t.Fatalf("initial offset = %f, %v", o0, ok)
	}
	// Barely-in-time pages push the offset out.
	tr.Feedback(ref, 10*vclock.Microsecond) // < TMin=40µs
	if o1, _ := tr.OffsetOf(ref); o1 != 1.2 {
		t.Fatalf("offset after raise = %f, want 1.2", o1)
	}
	// Far-too-early pages pull it back (floored at 1).
	tr.Feedback(ref, 10*vclock.Millisecond) // > TMax=5ms
	if o2, _ := tr.OffsetOf(ref); o2 < 0.95 || o2 > 1.0 {
		t.Fatalf("offset after lower = %f, want 1.0 (floor)", o2)
	}
	// In-band lead leaves it alone.
	tr.Feedback(ref, 1*vclock.Millisecond)
	if o3, _ := tr.OffsetOf(ref); o3 != 1.0 {
		t.Fatalf("in-band feedback moved offset to %f", o3)
	}
}

func TestOffsetCapAndFloor(t *testing.T) {
	tr := NewTrainer(DefaultParams())
	preds := feed(tr, 1, seqVPNs(0, 1, 17))
	ref := preds[0].Stream
	for i := 0; i < 100; i++ {
		tr.Feedback(ref, 0)
	}
	if o, _ := tr.OffsetOf(ref); o != 1024 {
		t.Fatalf("offset not capped at i_max: %f", o)
	}
	for i := 0; i < 200; i++ {
		tr.Feedback(ref, 10*vclock.Millisecond)
	}
	if o, _ := tr.OffsetOf(ref); o < 1 {
		t.Fatalf("offset fell below 1: %f", o)
	}
}

func TestStaleFeedbackIgnored(t *testing.T) {
	params := DefaultParams()
	params.StreamEntries = 1 // force eviction
	tr := NewTrainer(params)
	preds := feed(tr, 1, seqVPNs(0, 1, 17))
	ref := preds[0].Stream
	// A far-away page evicts the only entry; the ref generation is stale.
	tr.Observe(0, 1, 100000)
	tr.Feedback(ref, 0)
	if _, ok := tr.OffsetOf(ref); ok {
		t.Fatal("stale stream ref resolved")
	}
	if tr.Stats().OffsetRaises != 0 {
		t.Fatal("stale feedback adjusted an offset")
	}
}

func TestNonAdaptivePolicyFrozen(t *testing.T) {
	params := DefaultParams()
	params.Policy.Adaptive = false
	params.Policy.InitialOffset = 5
	tr := NewTrainer(params)
	preds := feed(tr, 1, seqVPNs(0, 1, 17))
	ref := preds[0].Stream
	tr.Feedback(ref, 0)
	if o, _ := tr.OffsetOf(ref); o != 5 {
		t.Fatalf("non-adaptive offset moved: %f", o)
	}
}

func TestLRUStreamEviction(t *testing.T) {
	params := DefaultParams()
	params.StreamEntries = 2
	tr := NewTrainer(params)
	tr.Observe(0, 1, 1000)  // stream A
	tr.Observe(1, 1, 50000) // stream B
	tr.Observe(2, 1, 1001)  // refresh A
	tr.Observe(3, 1, 90000) // stream C: evicts B (LRU)
	tr.Observe(4, 1, 1002)  // still matches A
	if tr.Stats().StreamsCreated != 3 || tr.Stats().StreamsEvicted != 1 {
		t.Fatalf("stats = %+v", tr.Stats())
	}
}

func TestNegativeStreamPrediction(t *testing.T) {
	tr := NewTrainer(DefaultParams())
	preds := feed(tr, 1, seqVPNs(10000, -3, 20))
	if len(preds) == 0 {
		t.Fatal("descending stream not predicted")
	}
	if p := preds[0]; p.Pages[0] >= 10000-16*3 {
		t.Fatalf("descending prediction points the wrong way: %v", p.Pages)
	}
}

func TestPredictionNeverBelowZero(t *testing.T) {
	tr := NewTrainer(DefaultParams())
	// Stream descending toward VPN 0: predictions must be clipped, not wrap.
	preds := feed(tr, 1, seqVPNs(17, -1, 18))
	for _, p := range preds {
		for _, pg := range p.Pages {
			if int64(pg) <= 0 || pg > memsim.MaxVPN {
				t.Fatalf("out-of-range prediction %d", pg)
			}
		}
	}
}

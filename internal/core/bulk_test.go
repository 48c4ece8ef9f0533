package core

import (
	"testing"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
	"hopp/internal/vmm"
)

func bulkParams(streamLen, pages int) Params {
	p := DefaultParams()
	p.Bulk = BulkParams{Enable: true, StreamLength: streamLen, Pages: pages, MinRemoteFrac: 0.9}
	return p
}

func TestBulkPredictionAfterStreak(t *testing.T) {
	tr := NewTrainer(bulkParams(4, 16))
	var bulk *Prediction
	for i := 0; i < 40 && bulk == nil; i++ {
		if pred, ok := tr.Observe(vclock.Time(i)*1000, 1, memsim.VPN(100+i)); ok && pred.Bulk {
			bulk = &pred
		}
	}
	if bulk == nil {
		t.Fatal("no bulk prediction on a long stride-1 stream")
	}
	if len(bulk.Pages) != 16 {
		t.Fatalf("bulk window = %d pages, want 16", len(bulk.Pages))
	}
	for i := 1; i < len(bulk.Pages); i++ {
		if bulk.Pages[i] != bulk.Pages[i-1]+1 {
			t.Fatal("bulk window not consecutive")
		}
	}
	if tr.Stats().BulkPredictions == 0 {
		t.Fatal("bulk prediction not counted")
	}
}

func TestBulkFenceBlocksRepeats(t *testing.T) {
	tr := NewTrainer(bulkParams(4, 64))
	bulks := 0
	for i := 0; i < 40; i++ {
		if pred, ok := tr.Observe(vclock.Time(i)*1000, 1, memsim.VPN(100+i)); ok && pred.Bulk {
			bulks++
		}
	}
	// 40 pages of stream progress inside a 64-page window: one bulk only.
	if bulks != 1 {
		t.Fatalf("bulks = %d, want 1 (fence must hold until window consumed)", bulks)
	}
}

func TestBulkDisabledByDefault(t *testing.T) {
	tr := NewTrainer(DefaultParams())
	for i := 0; i < 200; i++ {
		if pred, ok := tr.Observe(vclock.Time(i)*1000, 1, memsim.VPN(100+i)); ok && pred.Bulk {
			t.Fatal("bulk prediction with Bulk.Enable=false")
		}
	}
}

func TestBulkRequiresUnitStride(t *testing.T) {
	tr := NewTrainer(bulkParams(2, 16))
	for i := 0; i < 60; i++ {
		if pred, ok := tr.Observe(vclock.Time(i)*1000, 1, memsim.VPN(100+i*4)); ok && pred.Bulk {
			t.Fatal("bulk prediction on a stride-4 stream")
		}
	}
}

func TestBulkDescendingStream(t *testing.T) {
	tr := NewTrainer(bulkParams(4, 16))
	found := false
	for i := 0; i < 40 && !found; i++ {
		if pred, ok := tr.Observe(vclock.Time(i)*1000, 1, memsim.VPN(100000-i)); ok && pred.Bulk {
			found = true
			for j := 1; j < len(pred.Pages); j++ {
				if pred.Pages[j] != pred.Pages[j-1]-1 {
					t.Fatal("descending bulk window not consecutive downward")
				}
			}
		}
	}
	if !found {
		t.Fatal("no bulk prediction on a descending stream")
	}
}

func TestExecutorBulkSingleTransfer(t *testing.T) {
	b := newFakeBackend()
	tr := NewTrainer(bulkParams(4, 16))
	x := NewExecutor(b, tr, tr.params)
	pred := Prediction{
		Stream: StreamRef{Index: 0, Gen: 1}, Tier: TierSSP, PID: 1, Bulk: true,
		Pages: seqVPNs(100, 1, 16),
	}
	x.Submit(0, pred)
	if b.bulkCalls != 1 {
		t.Fatalf("bulk calls = %d, want 1", b.bulkCalls)
	}
	s := x.Stats()
	if s.BulkRequests != 1 || s.Issued != 16 {
		t.Fatalf("stats = %+v", s)
	}
	// Land and hit every page.
	for _, v := range pred.Pages {
		k := memsim.PageKey{PID: 1, VPN: v}
		b.land(k, 4000)
		x.OnFirstHit(k, 9000)
	}
	if x.Stats().Hits != 16 {
		t.Fatalf("hits = %d", x.Stats().Hits)
	}
}

func TestExecutorBulkFallsBackWhenMostlyResident(t *testing.T) {
	b := newFakeBackend()
	tr := NewTrainer(bulkParams(4, 16))
	x := NewExecutor(b, tr, tr.params)
	pages := seqVPNs(100, 1, 16)
	// 15 of 16 already mapped: below MinRemoteFrac.
	for _, v := range pages[:15] {
		b.states[memsim.PageKey{PID: 1, VPN: v}] = vmm.Mapped
	}
	x.Submit(0, Prediction{Stream: StreamRef{Index: 0, Gen: 1}, Tier: TierSSP, PID: 1, Bulk: true, Pages: pages})
	if b.bulkCalls != 0 {
		t.Fatal("bulk issued despite resident window")
	}
	if x.Stats().Issued != 1 {
		t.Fatalf("fallback should fetch the one remote page, issued = %d", x.Stats().Issued)
	}
}

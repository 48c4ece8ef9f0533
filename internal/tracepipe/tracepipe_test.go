package tracepipe

import (
	"bytes"
	"testing"

	"hopp/internal/hmtt"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

func ladder(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	st, err := Capture(&buf, workload.NewLadder(2048, 3), 1, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 8192 || st.Dropped != 0 || buf.Len() != st.Records*hmtt.RecordSize {
		t.Fatalf("capture = %+v, %d bytes", st, buf.Len())
	}
	return buf.Bytes()
}

func newT(t *testing.T, cfg Config) *Pipeline {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The counts are a function of the byte stream alone, not of how it is
// cut into pieces, for the HoPP algorithm and a registry scheme alike.
func TestFeedPiecesDoNotMatter(t *testing.T) {
	trace := ladder(t)
	for _, sys := range []sim.System{sim.HoPP(), sim.SPP()} {
		whole := newT(t, Config{System: sys})
		whole.Feed(trace, nil)
		torn := newT(t, Config{System: sys})
		for off := 0; off < len(trace); off += 7 {
			torn.Feed(trace[off:min(off+7, len(trace))], nil)
		}
		if whole.Counts() != torn.Counts() {
			t.Fatalf("%s: whole %+v, 7-byte pieces %+v", sys.Name, whole.Counts(), torn.Counts())
		}
		if c := whole.Counts(); c.Records != 8192 || c.HotPages == 0 || c.Prefetches == 0 || c.PrefetchHits == 0 {
			t.Fatalf("%s: counts %+v", sys.Name, c)
		}
	}
}

// A WRITE record reaches the HPD like a READ (§III-B): flipping every
// record's R/W flag moves reads to writes and changes nothing else.
func TestWritesReachHPD(t *testing.T) {
	trace := ladder(t)
	flipped := bytes.Clone(trace)
	for i := 0; i < len(flipped); i += hmtt.RecordSize {
		flipped[i+5] |= 1 << 5 // the write flag, bit 29 of the address word
	}
	r, w := newT(t, Config{System: sim.HoPP()}), newT(t, Config{System: sim.HoPP()})
	r.Feed(trace, nil)
	w.Feed(flipped, nil)
	rc, wc := r.Counts(), w.Counts()
	if wc.Writes != rc.Reads || wc.Reads != 0 {
		t.Fatalf("flipped trace: %+v", wc)
	}
	wc.Reads, wc.Writes = rc.Reads, rc.Writes
	if wc != rc {
		t.Fatalf("reads %+v, writes %+v", rc, wc)
	}
}

// Feed calls after once per record, after the record is counted.
func TestFeedCallsAfterPerRecord(t *testing.T) {
	p := newT(t, Config{System: sim.HoPP()})
	calls := uint64(0)
	p.Feed(ladder(t)[:100*hmtt.RecordSize+3], func(records uint64) {
		calls++
		if records != calls || p.Counts().Records != calls {
			t.Fatalf("call %d saw %d records", calls, records)
		}
	})
	if calls != 100 || p.Buffered() != 3 {
		t.Fatalf("%d calls, %d bytes buffered", calls, p.Buffered())
	}
}

// Resume picks a stream up mid-record: framing, loss and clock continue
// exactly, so the totals match an uninterrupted run's.
func TestResumeContinuesFraming(t *testing.T) {
	trace := ladder(t)
	cut := 4000*hmtt.RecordSize + 2
	whole := newT(t, Config{System: sim.HoPP()})
	whole.Feed(trace, nil)
	first := newT(t, Config{System: sim.HoPP()})
	first.Feed(trace[:cut], nil)
	resumed := newT(t, Config{System: sim.HoPP()})
	resumed.Resume(first.DecoderState(), first.Counts())
	resumed.Feed(trace[cut:], nil)
	want, got := whole.Counts(), resumed.Counts()
	if got.Records != want.Records || got.Reads != want.Reads || got.LossRecords != want.LossRecords ||
		got.ClockTicks != want.ClockTicks {
		t.Fatalf("resumed %+v, uninterrupted %+v", got, want)
	}
}

func TestThresholdValidated(t *testing.T) {
	for _, n := range []int{-1, 65} {
		if _, err := New(Config{Threshold: n}); err == nil {
			t.Fatalf("threshold %d accepted", n)
		}
	}
}

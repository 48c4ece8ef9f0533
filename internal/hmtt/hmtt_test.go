package hmtt

import (
	"bytes"
	"testing"
	"testing/quick"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{},
		{Seq: 255, TimestampDelta: 255, Write: true, Page: (1 << 29) - 1},
		{Seq: 7, TimestampDelta: 3, Write: false, Page: 0x12345},
	}
	var buf [RecordSize]byte
	for _, r := range cases {
		n := r.Encode(buf[:])
		if n != RecordSize {
			t.Fatalf("Encode wrote %d bytes", n)
		}
		got, err := Decode(buf[:])
		if err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Errorf("round trip: got %+v, want %+v", got, r)
		}
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(seq, ts uint8, write bool, page uint32) bool {
		r := Record{Seq: seq, TimestampDelta: ts, Write: write, Page: memsim.PPN(page & ((1 << 29) - 1))}
		var buf [RecordSize]byte
		r.Encode(buf[:])
		got, err := Decode(buf[:])
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeShort(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error on short record")
	}
}

func TestCaptureBasics(t *testing.T) {
	c := NewCapture(16)
	c.Observe(0, 100, false)
	c.Observe(vclock.Time(250), 101, true)
	if c.Pending() != 2 || c.Observed() != 2 {
		t.Fatalf("pending=%d observed=%d", c.Pending(), c.Observed())
	}
	recs := c.Drain(0)
	if len(recs) != 2 {
		t.Fatalf("drained %d", len(recs))
	}
	if recs[0].Page != 100 || recs[0].Write {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if recs[1].Page != 101 || !recs[1].Write {
		t.Fatalf("rec1 = %+v", recs[1])
	}
	if recs[1].TimestampDelta != 2 { // 250ns / 100ns ticks
		t.Fatalf("delta = %d, want 2", recs[1].TimestampDelta)
	}
	if recs[1].Seq != recs[0].Seq+1 {
		t.Fatal("sequence numbers not consecutive")
	}
}

func TestCaptureOverflowDropsOldest(t *testing.T) {
	c := NewCapture(4)
	for i := 0; i < 6; i++ {
		c.Observe(0, memsim.PPN(i), false)
	}
	if c.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", c.Dropped())
	}
	recs := c.Drain(0)
	if len(recs) != 4 {
		t.Fatalf("len = %d", len(recs))
	}
	if recs[0].Page != 2 || recs[3].Page != 5 {
		t.Fatalf("kept wrong window: first=%d last=%d", recs[0].Page, recs[3].Page)
	}
	// Loss is visible in the seq gap between pre-drop and post-drop drains.
}

func TestDrainMax(t *testing.T) {
	c := NewCapture(8)
	for i := 0; i < 5; i++ {
		c.Observe(0, memsim.PPN(i), false)
	}
	first := c.Drain(2)
	if len(first) != 2 || c.Pending() != 3 {
		t.Fatalf("partial drain broken: got %d pending %d", len(first), c.Pending())
	}
	rest := c.Drain(0)
	if len(rest) != 3 || rest[0].Page != 2 {
		t.Fatalf("rest = %+v", rest)
	}
}

func TestTimestampSaturation(t *testing.T) {
	c := NewCapture(4)
	c.Observe(0, 1, false)
	c.Observe(vclock.Time(1_000_000), 2, false) // 10,000 ticks later
	recs := c.Drain(0)
	if recs[1].TimestampDelta != 255 {
		t.Fatalf("delta = %d, want saturated 255", recs[1].TimestampDelta)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	c := NewCapture(64)
	for i := 0; i < 10; i++ {
		c.Observe(vclock.Time(i*300), memsim.PPN(i*7), i%2 == 0)
	}
	recs := c.Drain(0)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 10*RecordSize {
		t.Fatalf("trace size = %d", buf.Len())
	}
	var got []Record
	var d Decoder
	d.Feed(buf.Bytes(), func(r Record, _ int) { got = append(got, r) })
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestLossBetween(t *testing.T) {
	a := Record{Seq: 10}
	if LossBetween(a, Record{Seq: 11}) != 0 {
		t.Fatal("contiguous records reported loss")
	}
	if LossBetween(a, Record{Seq: 14}) != 3 {
		t.Fatal("gap of 3 not detected")
	}
	// Wraparound: 255 -> 0 is contiguous.
	if LossBetween(Record{Seq: 255}, Record{Seq: 0}) != 0 {
		t.Fatal("seq wraparound mishandled")
	}
}

func TestAddressMasking(t *testing.T) {
	c := NewCapture(2)
	c.Observe(0, memsim.PPN(1<<33|42), false)
	recs := c.Drain(0)
	if recs[0].Page != 42 {
		t.Fatalf("page = %d, want masked 42", recs[0].Page)
	}
}

// countingWriter counts Write calls and keeps the bytes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// WriteTrace issues one Write per call, whatever the batch size, with
// the bytes the records encode to one by one; an empty batch writes
// nothing.
func TestWriteTraceOneWritePerCall(t *testing.T) {
	var recs []Record
	var want []byte
	for i := 0; i < 1000; i++ {
		r := Record{Seq: uint8(i), TimestampDelta: uint8(i * 3), Write: i%3 == 0, Page: memsim.PPN(i * 4099)}
		recs = append(recs, r)
		var b [RecordSize]byte
		r.Encode(b[:])
		want = append(want, b[:]...)
	}
	var w countingWriter
	if err := WriteTrace(&w, recs); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("%d writes, %d bytes (equal %v); want 1 write of %d bytes", w.writes, w.Len(), bytes.Equal(w.Bytes(), want), len(want))
	}
	if err := WriteTrace(&w, nil); err != nil || w.writes != 1 {
		t.Fatalf("empty batch: err %v, writes %d, want no write", err, w.writes)
	}
}

// Drain returns the ring's records oldest first whichever way the ring
// wraps, with partial and overflowing drains mixed in.
func TestDrainAcrossWrap(t *testing.T) {
	c := NewCapture(7)
	var queue []memsim.PPN // what the ring should hold, oldest first
	page := memsim.PPN(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < round%11; i++ {
			c.Observe(0, page, false)
			queue = append(queue, page)
			page++
			if len(queue) > 7 {
				queue = queue[1:] // overflow drops the oldest
			}
		}
		max := round % 4
		got := c.Drain(max)
		n := len(queue)
		if max > 0 && max < n {
			n = max
		}
		if len(got) != n {
			t.Fatalf("round %d: drained %d, want %d", round, len(got), n)
		}
		for i, r := range got {
			if r.Page != queue[i] {
				t.Fatalf("round %d: record %d page %d, want %d", round, i, r.Page, queue[i])
			}
		}
		queue = queue[n:]
		if c.Pending() != len(queue) {
			t.Fatalf("round %d: pending %d, want %d", round, c.Pending(), len(queue))
		}
	}
}

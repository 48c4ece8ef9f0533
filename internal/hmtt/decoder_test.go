package hmtt

import (
	"bytes"
	"encoding/json"
	"testing"

	"hopp/internal/memsim"
)

// encodeSeq builds a contiguous encoded stream of n records starting at
// sequence number start, skipping the sequence numbers in skip to
// synthesize capture loss.
func encodeSeq(start uint8, n int, skip map[uint8]bool) ([]byte, []Record) {
	var buf bytes.Buffer
	var recs []Record
	seq := start
	for len(recs) < n {
		if skip[seq] {
			seq++
			continue
		}
		r := Record{
			Seq:            seq,
			TimestampDelta: uint8(len(recs) % 7),
			Write:          len(recs)%3 == 0,
			Page:           memsim.PPN(uint32(len(recs)*977) & addrMask),
		}
		var b [RecordSize]byte
		r.Encode(b[:])
		buf.Write(b[:])
		recs = append(recs, r)
		seq++
	}
	return buf.Bytes(), recs
}

// feedIn splits raw into pieces of the given sizes (cycling) and feeds
// them through d, collecting emitted records and per-record gaps.
func feedIn(d *Decoder, raw []byte, sizes []int) ([]Record, []int) {
	var got []Record
	var gaps []int
	emit := func(r Record, lost int) {
		got = append(got, r)
		gaps = append(gaps, lost)
	}
	i := 0
	for len(raw) > 0 {
		n := sizes[i%len(sizes)]
		i++
		if n > len(raw) {
			n = len(raw)
		}
		d.Feed(raw[:n], emit)
		raw = raw[n:]
	}
	return got, gaps
}

func TestDecoderTornBoundaries(t *testing.T) {
	raw, want := encodeSeq(250, 64, nil) // wraps 255 -> 0 mid-stream
	// Every split pattern must yield the identical record stream.
	for _, sizes := range [][]int{{1}, {2}, {3}, {5}, {7}, {6}, {RecordSize - 1, 1}, {11, 1, 2}, {len(raw)}} {
		var d Decoder
		got, gaps := feedIn(&d, raw, sizes)
		if len(got) != len(want) {
			t.Fatalf("sizes %v: decoded %d records, want %d", sizes, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sizes %v: record %d = %+v, want %+v", sizes, i, got[i], want[i])
			}
			if gaps[i] != 0 {
				t.Fatalf("sizes %v: record %d reported loss %d on contiguous stream", sizes, i, gaps[i])
			}
		}
		if d.records != uint64(len(want)) || d.lost != 0 || d.Buffered() != 0 {
			t.Fatalf("sizes %v: records=%d lost=%d buffered=%d", sizes, d.records, d.lost, d.Buffered())
		}
	}
}

func TestDecoderIncrementalLoss(t *testing.T) {
	// Drop seqs 5,6 and 250..252: gaps of 2 and 3 must be attributed to
	// the records that follow them, matching the batch LossBetween math.
	skip := map[uint8]bool{5: true, 6: true, 250: true, 251: true, 252: true}
	raw, want := encodeSeq(0, 300, skip)
	var d Decoder
	got, gaps := feedIn(&d, raw, []int{5})
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	wantLost := uint64(0)
	for i := 1; i < len(want); i++ {
		exp := LossBetween(want[i-1], want[i])
		if gaps[i] != exp {
			t.Fatalf("record %d: gap %d, want LossBetween=%d", i, gaps[i], exp)
		}
		wantLost += uint64(exp)
	}
	if gaps[0] != 0 {
		t.Fatalf("first record reported loss %d", gaps[0])
	}
	if wantLost == 0 {
		t.Fatal("test stream synthesized no loss")
	}
	if d.lost != wantLost {
		t.Fatalf("Lost = %d, want %d", d.lost, wantLost)
	}
}

func TestDecoderStateRestoreMidRecord(t *testing.T) {
	raw, want := encodeSeq(40, 32, map[uint8]bool{50: true})
	// Feed up to a deliberately torn point: 10 whole records + 4 bytes.
	cut := 10*RecordSize + 4
	var d1 Decoder
	var got []Record
	emit := func(r Record, _ int) { got = append(got, r) }
	d1.Feed(raw[:cut], emit)
	if d1.Buffered() != 4 {
		t.Fatalf("buffered %d, want 4", d1.Buffered())
	}

	// Snapshot, shuttle through JSON like the journal does, restore into
	// a fresh decoder, and finish the stream.
	st := d1.State()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 DecoderState
	if err := json.Unmarshal(b, &st2); err != nil {
		t.Fatal(err)
	}
	var d2 Decoder
	d2.Restore(st2)
	if d2.Buffered() != 4 || d2.records != 10 {
		t.Fatalf("restored buffered=%d records=%d", d2.Buffered(), d2.records)
	}
	d2.Feed(raw[cut:], emit)

	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Loss accounting must survive the restore: the skipped seq 50 sits
	// after the cut, so d2 attributes it using d1's carried prevSeq.
	if d2.lost != 1 {
		t.Fatalf("Lost = %d, want 1", d2.lost)
	}

	// Mutating the snapshot's Partial must not disturb the source.
	if len(st.Partial) > 0 {
		st.Partial[0] ^= 0xff
		st3 := d1.State()
		if st3.Partial[0] == st.Partial[0] {
			t.Fatal("State returned aliased Partial")
		}
	}
}

func TestDecoderRestoreOversizedPartial(t *testing.T) {
	var d Decoder
	d.Restore(DecoderState{Partial: make([]byte, 3*RecordSize)})
	if d.Buffered() >= RecordSize {
		t.Fatalf("buffered %d after corrupt restore", d.Buffered())
	}
	// Must still decode cleanly after the truncated garbage prefix.
	d.Feed(make([]byte, RecordSize), func(Record, int) {})
}

func TestDecoderFeedZeroAlloc(t *testing.T) {
	raw, _ := encodeSeq(0, 128, nil)
	var d Decoder
	emit := func(Record, int) {}
	allocs := testing.AllocsPerRun(100, func() {
		d.Feed(raw[:31], emit)
		d.Feed(raw[31:], emit)
	})
	if allocs != 0 {
		t.Fatalf("Feed allocated %.1f times per run, want 0", allocs)
	}
}

func FuzzDecoder(f *testing.F) {
	raw, _ := encodeSeq(200, 20, map[uint8]bool{210: true})
	f.Add(raw, uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0x00, 0xde, 0xad, 0xbe}, uint8(3))
	f.Add(bytes.Repeat([]byte{0xa5}, 64), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, step uint8) {
		sz := int(step%13) + 1
		var d Decoder
		n := 0
		emit := func(Record, int) { n++ }
		for p := data; len(p) > 0; {
			c := sz
			if c > len(p) {
				c = len(p)
			}
			d.Feed(p[:c], emit)
			p = p[c:]
		}
		// However torn or garbage the input, framing is exact: every
		// complete 6-byte group becomes exactly one record and the tail
		// is carried, never dropped or double-counted.
		if n != len(data)/RecordSize {
			t.Fatalf("emitted %d records from %d bytes", n, len(data))
		}
		if d.records != uint64(n) {
			t.Fatalf("Records=%d, emitted %d", d.records, n)
		}
		if d.Buffered() != len(data)%RecordSize {
			t.Fatalf("Buffered=%d from %d bytes", d.Buffered(), len(data))
		}
	})
}

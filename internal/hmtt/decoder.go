package hmtt

import "hopp/internal/memsim"

// Decoder incrementally decodes a stream of 6-byte HMTT records whose
// bytes arrive in arbitrary pieces — HTTP chunk uploads, short reads,
// torn writes. Records split across Feed boundaries are carried in a
// partial buffer until their remaining bytes arrive, and sequence-gap
// loss (the paper's capture-buffer overflow signal) is accounted
// incrementally as each record completes, so a consumer can surface loss
// per window instead of only after the whole trace is in hand.
//
// The zero value is ready to use. Feed never allocates and never
// panics, whatever the input: the record format has no framing to
// corrupt, so garbage bytes simply decode as garbage records whose
// sequence gaps show up in Lost — exactly how a real HMTT consumer
// experiences a damaged capture.
type Decoder struct {
	partial [RecordSize]byte
	n       int // buffered bytes of the current partial record

	havePrev bool
	prevSeq  uint8

	records uint64
	lost    uint64
}

// Feed consumes one piece of the stream, invoking emit for every record
// that completes. lostBefore is the number of records the sequence gap
// between the previous record and this one says were lost in capture
// (0 on a contiguous stream). The piece may start or end mid-record;
// leftover bytes are carried into the next Feed.
//
//hopplint:hotpath
func (d *Decoder) Feed(p []byte, emit func(rec Record, lostBefore int)) {
	if d.n > 0 {
		// Complete the carried partial record first.
		c := copy(d.partial[d.n:], p)
		d.n += c
		p = p[c:]
		if d.n < RecordSize {
			return
		}
		d.n = 0
		d.emitOne(d.partial[:], emit)
	}
	for len(p) >= RecordSize {
		d.emitOne(p[:RecordSize], emit)
		p = p[RecordSize:]
	}
	if len(p) > 0 {
		d.n = copy(d.partial[:], p)
	}
}

// emitOne decodes one whole record, accounts its sequence gap, and
// hands it to emit.
func (d *Decoder) emitOne(buf []byte, emit func(Record, int)) {
	word := uint32(buf[2]) | uint32(buf[3])<<8 | uint32(buf[4])<<16 | uint32(buf[5])<<24
	rec := Record{
		Seq:            buf[0],
		TimestampDelta: buf[1],
		Write:          word&(1<<29) != 0,
		Page:           memsim.PPN(word & addrMask),
	}
	gap := 0
	if d.havePrev {
		gap = int(uint8(rec.Seq - (d.prevSeq + 1)))
	}
	d.havePrev = true
	d.prevSeq = rec.Seq
	d.records++
	d.lost += uint64(gap)
	emit(rec, gap)
}

// Buffered returns how many bytes of a partial record are carried,
// waiting for the rest of the stream (always < RecordSize).
func (d *Decoder) Buffered() int { return d.n }

// DecoderState is a Decoder's resumable snapshot: everything needed to
// continue an interrupted stream with exact record framing and
// sequence-gap accounting — the piece of an ingest session's pipeline
// that must survive a daemon restart byte-exactly. Partial carries the
// torn tail of the last fed piece (< RecordSize bytes).
type DecoderState struct {
	Partial  []byte `json:"partial,omitempty"`
	HavePrev bool   `json:"have_prev,omitempty"`
	PrevSeq  uint8  `json:"prev_seq,omitempty"`
	Records  uint64 `json:"records,omitempty"`
	Lost     uint64 `json:"lost,omitempty"`
}

// State snapshots the decoder for journaling. The returned Partial
// slice is a copy; mutating it later does not disturb the decoder.
func (d *Decoder) State() DecoderState {
	s := DecoderState{
		HavePrev: d.havePrev,
		PrevSeq:  d.prevSeq,
		Records:  d.records,
		Lost:     d.lost,
	}
	if d.n > 0 {
		s.Partial = append([]byte(nil), d.partial[:d.n]...)
	}
	return s
}

// Restore rewinds the decoder to a journaled snapshot. Oversized
// Partial bytes (a corrupt journal) are truncated to RecordSize-1
// rather than trusted — the next Feed resynchronizes on record
// boundaries regardless.
func (d *Decoder) Restore(s DecoderState) {
	*d = Decoder{
		havePrev: s.HavePrev,
		prevSeq:  s.PrevSeq,
		records:  s.Records,
		lost:     s.Lost,
	}
	p := s.Partial
	if len(p) >= RecordSize {
		p = p[:RecordSize-1]
	}
	d.n = copy(d.partial[:], p)
}

// Package hmtt emulates the Hybrid Memory Trace Tool of §V: a
// DIMM-snooping tracer that captures every off-chip memory reference and
// streams fixed-width records into a reserved DRAM buffer on a second
// socket.
//
// Each record carries, as in the paper, an 8-bit sequence number, an
// 8-bit (delta) timestamp, a 1-bit read/write flag, and a 29-bit physical
// address — here a 29-bit PPN-granularity address, which covers the
// prototype's 2 TB of traceable physical pages. Records pack into 6
// bytes on the wire.
package hmtt

import (
	"fmt"
	"io"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// RecordSize is the encoded size of one trace record in bytes.
const RecordSize = 6

// addrMask keeps the 29 bits of physical page address the record format
// can carry.
const addrMask = (1 << 29) - 1

// Record is one captured off-chip memory reference.
type Record struct {
	// Seq is the per-stream 8-bit sequence number; consumers use gaps in
	// it to detect capture loss.
	Seq uint8
	// TimestampDelta is the 8-bit quantized time since the previous
	// record, in capture ticks (see TickNS).
	TimestampDelta uint8
	// Write is true for a WRITE reference, false for a READ.
	Write bool
	// Page is the 29-bit physical page number of the reference.
	Page memsim.PPN
}

// TickNS is the capture timestamp quantum. HMTT timestamps are coarse;
// 100 ns per tick keeps the 8-bit delta useful at DRAM traffic rates.
const TickNS = 100

// Encode packs the record into buf, which must be at least RecordSize
// bytes, and returns the number of bytes written.
func (r Record) Encode(buf []byte) int {
	if len(buf) < RecordSize {
		panic("hmtt: Encode buffer too small")
	}
	// Layout (48 bits, little-endian):
	//   [0]   seq
	//   [1]   timestamp delta
	//   [2:6] write flag (bit 29) | page (bits 0-28), little-endian u32
	buf[0] = r.Seq
	buf[1] = r.TimestampDelta
	word := uint32(uint64(r.Page) & addrMask)
	if r.Write {
		word |= 1 << 29
	}
	buf[2] = byte(word)
	buf[3] = byte(word >> 8)
	buf[4] = byte(word >> 16)
	buf[5] = byte(word >> 24)
	return RecordSize
}

// Capture is the bump-in-the-wire tracer. Feed it memory references with
// Observe; encoded records accumulate in the reserved buffer (modelled as
// a bounded ring, like the DMA area in DRAM 1 of Fig. 8). When the
// consumer falls behind, records are dropped and counted, mirroring real
// HMTT overflow behaviour.
type Capture struct {
	buf      []Record
	head     int // next slot to write
	tail     int // next slot to read
	size     int
	count    int
	seq      uint8
	lastTick int64

	observed uint64
	dropped  uint64
}

// NewCapture creates a tracer whose reserved buffer holds capacity
// records. Capacity must be positive.
func NewCapture(capacity int) *Capture {
	if capacity <= 0 {
		panic("hmtt: capture capacity must be positive")
	}
	return &Capture{buf: make([]Record, capacity), size: capacity}
}

// Observe records one off-chip reference at virtual time now.
func (c *Capture) Observe(now vclock.Time, page memsim.PPN, write bool) {
	c.observed++
	tick := int64(now) / TickNS
	delta := tick - c.lastTick
	if delta < 0 {
		delta = 0
	}
	if delta > 255 {
		delta = 255
	}
	c.lastTick = tick
	rec := Record{Seq: c.seq, TimestampDelta: uint8(delta), Write: write, Page: page & addrMask}
	c.seq++
	if c.count == c.size {
		// Overwrite oldest: consumer fell behind.
		c.tail = (c.tail + 1) % c.size
		c.count--
		c.dropped++
	}
	c.buf[c.head] = rec
	c.head = (c.head + 1) % c.size
	c.count++
}

// Drain removes and returns up to max buffered records (all of them when
// max <= 0).
func (c *Capture) Drain(max int) []Record {
	n := c.count
	if max > 0 && max < n {
		n = max
	}
	// The ring's records run from tail to the end of buf, then wrap to
	// its start.
	out := make([]Record, n)
	first := copy(out, c.buf[c.tail:min(c.tail+n, c.size)])
	copy(out[first:], c.buf[:n-first])
	c.tail = (c.tail + n) % c.size
	c.count -= n
	return out
}

// Pending returns how many records are buffered.
func (c *Capture) Pending() int { return c.count }

// Observed returns the total references seen.
func (c *Capture) Observed() uint64 { return c.observed }

// Dropped returns how many records were lost to buffer overflow.
func (c *Capture) Dropped() uint64 { return c.dropped }

// WriteTrace encodes records to w in the on-disk format (consecutive
// 6-byte records) with a single Write, so an unbuffered writer costs one
// system call per batch rather than one per record. An empty batch
// writes nothing.
func WriteTrace(w io.Writer, recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	buf := make([]byte, len(recs)*RecordSize)
	for i, r := range recs {
		r.Encode(buf[i*RecordSize:])
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("hmtt: write trace: %w", err)
	}
	return nil
}

package hmtt

import (
	"fmt"

	"hopp/internal/memsim"
)

// Oracles the tests check the decoder against; production decodes
// through Decoder.

// Decode unpacks a record from buf.
func Decode(buf []byte) (Record, error) {
	if len(buf) < RecordSize {
		return Record{}, fmt.Errorf("hmtt: short record: %d bytes", len(buf))
	}
	word := uint32(buf[2]) | uint32(buf[3])<<8 | uint32(buf[4])<<16 | uint32(buf[5])<<24
	return Record{
		Seq:            buf[0],
		TimestampDelta: buf[1],
		Write:          word&(1<<29) != 0,
		Page:           memsim.PPN(word & addrMask),
	}, nil
}

// LossBetween inspects consecutive sequence numbers and returns how many
// records were lost between two adjacent captured records (0 when the
// stream is contiguous).
func LossBetween(prev, next Record) int {
	expect := prev.Seq + 1
	return int(uint8(next.Seq - expect))
}

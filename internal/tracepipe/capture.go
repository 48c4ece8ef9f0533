package tracepipe

import (
	"io"

	"hopp/internal/cachesim"
	"hopp/internal/hmtt"
	"hopp/internal/memsim"
	"hopp/internal/vclock"
	"hopp/internal/workload"
)

// CaptureStats summarizes one Capture.
type CaptureStats struct {
	// Records is how many records were written.
	Records int
	// Observed and Dropped are the tracer's reference and overflow
	// counts.
	Observed, Dropped uint64
}

// Capture is the producer side of the prototype: it runs gen (reset to
// seed) through the default cache hierarchy and records every access
// that reaches memory with an HMTT tracer, writing the encoded trace to
// w. Addresses map to themselves, as in an offline capture. The tracer
// is drained every 1024 records, so capture stops at the first drain
// that reaches max records and may overshoot it by up to 1023.
func Capture(w io.Writer, gen workload.Generator, seed int64, max int) (CaptureStats, error) {
	gen.Reset(seed)
	h := cachesim.DefaultHierarchy()
	c := hmtt.NewCapture(4096)
	written := 0
	now := vclock.Time(0)
	for written < max {
		a, ok := gen.Next()
		if !ok {
			break
		}
		now = now.Add(a.Think)
		pa := memsim.PAddr(a.Addr)
		if h.Access(pa) != cachesim.LevelMemory {
			now = now.Add(15)
			continue
		}
		now = now.Add(100) // DRAM access
		c.Observe(now, pa.Page(), a.Write)
		if c.Pending() >= 1024 {
			recs := c.Drain(0)
			if err := hmtt.WriteTrace(w, recs); err != nil {
				return CaptureStats{}, err
			}
			written += len(recs)
		}
	}
	recs := c.Drain(0)
	if err := hmtt.WriteTrace(w, recs); err != nil {
		return CaptureStats{}, err
	}
	written += len(recs)
	return CaptureStats{Records: written, Observed: c.Observed(), Dropped: c.Dropped()}, nil
}

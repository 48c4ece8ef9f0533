// Package proto models the paper's proof-of-concept prototype (§V):
// instead of hot page detection hardware inside the memory controller,
// an HMTT tracer captures the FULL off-chip reference stream into a
// reserved DRAM buffer, and a software HPD running on a dedicated core
// drains that buffer, detects hot pages, and resolves them through a
// software reverse page table.
//
// The pipeline implements mc.Tracker, so a simulated machine can run
// either the §III hardware design or this §V prototype — and the two
// can be compared, which is exactly the fidelity argument the paper
// makes for its emulation methodology.
//
// Prototype-specific behaviours faithfully modelled:
//
//   - the tracer emits one 6-byte record per LLC miss (vs the design's
//     8 bytes per *hot page*), so trace bandwidth is ~50x higher;
//   - the capture ring can overflow when the software falls behind,
//     dropping records;
//   - record timestamps are 8-bit quantized deltas, so the software's
//     reconstructed clock drifts under long gaps (saturated deltas).
package proto

import (
	"hopp/internal/hmtt"
	"hopp/internal/hpd"
	"hopp/internal/mc"
	"hopp/internal/memsim"
	"hopp/internal/rpt"
	"hopp/internal/vclock"
)

// Config parameterizes the prototype pipeline.
type Config struct {
	// CaptureRecords is the HMTT DRAM ring capacity. Default 1<<16.
	CaptureRecords int
	// HPD configures the software hot page detection (defaults §III-B).
	HPD hpd.Config
	// OutBuf bounds buffered hot page records awaiting the trainer.
	// Default 1<<16.
	OutBuf int
}

// Pipeline is the HMTT → software-HPD → software-RPT data path.
type Pipeline struct {
	capture *hmtt.Capture
	det     *hpd.Table
	// softRPT is the software reverse page table: the full map, no
	// hardware cache in front (the prototype keeps it in plain memory).
	softRPT map[memsim.PPN]rpt.Entry

	out    []mc.HotPage
	outCap int

	// clock reconstructs absolute time from quantized deltas.
	clockTick int64

	stats      mc.Stats
	rptLookups uint64
	dropped    uint64
}

// New builds the prototype pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.CaptureRecords == 0 {
		cfg.CaptureRecords = 1 << 16
	}
	if cfg.OutBuf == 0 {
		cfg.OutBuf = 1 << 16
	}
	det, err := hpd.New(cfg.HPD)
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		capture: hmtt.NewCapture(cfg.CaptureRecords),
		det:     det,
		softRPT: make(map[memsim.PPN]rpt.Entry),
		outCap:  cfg.OutBuf,
	}, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config) *Pipeline {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// ObserveMiss implements mc.Tracker: every miss becomes an HMTT record.
func (p *Pipeline) ObserveMiss(now vclock.Time, pa memsim.PAddr, write bool) {
	p.stats.MissBytes += memsim.LineSize
	if write {
		p.stats.WriteMisses++
	} else {
		p.stats.ReadMisses++
	}
	// Every record crosses PCIe into the reserved DRAM area (Fig. 8) —
	// the full-trace bandwidth cost Stats reports via HotBytes.
	p.capture.Observe(now, pa.Page(), write)
}

// process drains the capture ring through the software HPD.
func (p *Pipeline) process() {
	recs := p.capture.Drain(0)
	p.dropped = p.capture.Dropped()
	for _, r := range recs {
		p.clockTick += int64(r.TimestampDelta)
		// Every record reaches the software HPD, READ or WRITE: a WRITE
		// miss first fetches the line (§III-B), as in mc.ObserveMiss.
		if p.det.Access(r.Page) {
			entry := p.softRPT[r.Page]
			p.rptLookups++
			hp := mc.HotPage{
				Time:   vclock.Time(p.clockTick * hmtt.TickNS),
				PID:    entry.PID,
				VPN:    entry.VPN,
				PPN:    r.Page,
				Shared: entry.Shared,
				Huge:   entry.Huge,
				Mapped: entry.Valid,
			}
			if !entry.Valid {
				p.stats.HotUnmapped++
			}
			if len(p.out) >= p.outCap {
				p.out = p.out[1:]
				p.stats.Dropped++
			}
			p.out = append(p.out, hp)
			p.stats.HotEmitted++
		}
	}
}

// DrainInto implements mc.Tracker.
func (p *Pipeline) DrainInto(buf []mc.HotPage, max int) []mc.HotPage {
	p.process()
	n := len(p.out)
	if max > 0 && max < n {
		n = max
	}
	buf = append(buf, p.out[:n]...)
	p.out = p.out[n:]
	return buf
}

// Pending implements mc.Tracker. Answering requires running the
// software pipeline (draining the HMTT capture ring through the HPD),
// exactly as the hot-page-area read in DrainInto does.
func (p *Pipeline) Pending() int {
	p.process()
	return len(p.out)
}

// SetMapping implements mc.Tracker (the kernel callback path of §V).
func (p *Pipeline) SetMapping(ppn memsim.PPN, pid memsim.PID, vpn memsim.VPN, shared bool, huge rpt.HugeClass) {
	p.softRPT[ppn] = rpt.Entry{PID: pid, VPN: vpn, Shared: shared, Huge: huge, Valid: true}
}

// ClearMapping implements mc.Tracker.
func (p *Pipeline) ClearMapping(ppn memsim.PPN) {
	delete(p.softRPT, ppn)
}

// Stats implements mc.Tracker. HotBytes reports the *trace* bandwidth
// the prototype pays (6 B per miss over PCIe+DMA), which dwarfs the
// design's per-hot-page cost — the reason §V routes it to a second
// socket's DRAM.
func (p *Pipeline) Stats() mc.Stats {
	s := p.stats
	s.HotBytes = p.capture.BytesOut()
	return s
}

// RPTCacheStats implements mc.Tracker: the software RPT has no MC-side
// cache; every lookup "hits" plain memory.
func (p *Pipeline) RPTCacheStats() rpt.CacheStats {
	return rpt.CacheStats{Lookups: p.rptLookups, Hits: p.rptLookups}
}

// HPDStats implements mc.Tracker.
func (p *Pipeline) HPDStats() hpd.Stats { return p.det.Stats() }

// CaptureDropped returns records lost to HMTT ring overflow.
func (p *Pipeline) CaptureDropped() uint64 { return p.capture.Dropped() }

var _ mc.Tracker = (*Pipeline)(nil)

// Package tracepipe is the trace-driven prefetch pipeline of the §V
// prototype: HMTT records flow through a software hot page detection
// table, and the pages it promotes train a prefetcher. One Pipeline owns
// the whole loop — the streaming record decoder, the clock reconstructed
// from the trace's own timestamps, the HPD table, the HoPP prediction
// algorithm or a prefetch-registry scheme, a bounded set of predicted
// pages that scores later reads as prefetch hits, and the cumulative
// counts. Live ingest sessions feed it chunk by chunk and
// cmd/traceanalyze streams a trace file through it, so both report the
// same numbers for the same trace.
//
// Every record reaches the HPD, READ or WRITE: "a WRITE-miss operation
// will first generate a READ trace" (§III-B), which is also how
// mc.Controller.ObserveMiss counts them.
package tracepipe

import (
	"hopp/internal/core"
	"hopp/internal/flatmap"
	"hopp/internal/hmtt"
	"hopp/internal/hpd"
	"hopp/internal/memsim"
	"hopp/internal/prefetch"
	"hopp/internal/sim"
	"hopp/internal/vclock"
)

// pid is the process every trace page is attributed to. HMTT snoops
// physical addresses below the OS, so a trace is one flat address space
// and pages map to themselves (PPN = VPN).
const pid memsim.PID = 1

// Config selects what the pipeline models.
type Config struct {
	// System is the system under test. A HoPP system trains its
	// prediction algorithm on the hot-page stream; any other system with
	// a demand-path prefetcher drives that prefetcher from every record.
	System sim.System
	// Threshold is the HPD hot threshold N in [1, 64]; 0 means the
	// paper's 8.
	Threshold int
	// LocalFrac is local memory as a fraction of the footprint. It sizes
	// the predicted-page set: the less memory is local, the more remote
	// pages a prefetcher keeps staged.
	LocalFrac float64
}

// Counts are a pipeline's cumulative totals. They serialize with the
// keys the ingest journal has always used.
type Counts struct {
	Records uint64 `json:"records,omitempty"`
	// LossRecords is the capture loss the records' sequence gaps imply.
	LossRecords uint64 `json:"loss_records,omitempty"`
	Reads       uint64 `json:"reads,omitempty"`
	Writes      uint64 `json:"writes,omitempty"`
	// HotPages counts HPD promotions.
	HotPages uint64 `json:"hot_pages,omitempty"`
	// Prefetches counts pages newly added to the predicted set;
	// PrefetchHits counts records that read a predicted page.
	Prefetches   uint64 `json:"prefetches,omitempty"`
	PrefetchHits uint64 `json:"prefetch_hits,omitempty"`
	// ClockTicks is the trace clock: the sum of the records'
	// TimestampDelta, in hmtt.TickNS units.
	ClockTicks uint64 `json:"clock_ticks,omitempty"`
}

// ClockNS is the trace clock in nanoseconds.
func (c Counts) ClockNS() int64 { return int64(c.ClockTicks) * hmtt.TickNS }

// Pipeline is one trace's HMTT → HPD → predictor loop. It is not safe
// for concurrent use.
type Pipeline struct {
	dec    hmtt.Decoder
	hot    *hpd.Table
	algo   core.Algorithm      // HoPP systems
	demand prefetch.Prefetcher // registry schemes

	// The predicted set: members (keyed by VPN) are pages predicted and
	// not yet read; fifo holds them in prediction order. A read removes
	// the member but leaves its fifo slot, skipped when it reaches the
	// front.
	predicted *flatmap.Map[struct{}]
	fifo      []memsim.VPN
	predCap   int

	n Counts

	emit  func(hmtt.Record, int) // observe, bound once
	after func(records uint64)   // Feed's per-record callback
}

// New builds a pipeline. It fails only on an out-of-range Threshold.
func New(cfg Config) (*Pipeline, error) {
	hot, err := hpd.New(hpd.Config{Threshold: cfg.Threshold})
	if err != nil {
		return nil, err
	}
	predCap := int((1 - cfg.LocalFrac) * 8192)
	if predCap < 256 {
		predCap = 256
	}
	p := &Pipeline{
		hot:       hot,
		predicted: flatmap.New[struct{}](predCap),
		predCap:   predCap,
	}
	switch {
	case cfg.System.HoPP:
		p.algo = core.NewAlgorithm(cfg.System.HoPPParams)
	case cfg.System.NewFault != nil:
		p.demand = cfg.System.NewFault(nil)
	}
	p.emit = p.observe
	return p, nil
}

// Feed decodes one piece of the trace's byte stream and runs every
// record it completes through the pipeline. After each record it calls
// after, when non-nil, with the number of records so far. Pieces may
// start or end mid-record.
func (p *Pipeline) Feed(data []byte, after func(records uint64)) {
	p.after = after
	p.dec.Feed(data, p.emit)
	p.after = nil
}

// Write feeds data, so a trace file can be copied into the pipeline. It
// never fails.
func (p *Pipeline) Write(data []byte) (int, error) {
	p.Feed(data, nil)
	return len(data), nil
}

// observe runs one decoded record through the loop.
func (p *Pipeline) observe(rec hmtt.Record, lostBefore int) {
	p.n.ClockTicks += uint64(rec.TimestampDelta)
	p.n.Records++
	p.n.LossRecords += uint64(lostBefore)
	if rec.Write {
		p.n.Writes++
	} else {
		p.n.Reads++
	}
	// Not p.n.ClockNS(): the value receiver would copy all of p.n per
	// record.
	now := vclock.Time(int64(p.n.ClockTicks) * hmtt.TickNS)
	vpn := memsim.VPN(rec.Page)
	key := memsim.PageKey{PID: pid, VPN: vpn}
	if p.predicted.Delete(uint64(vpn)) {
		p.n.PrefetchHits++
		if p.demand != nil {
			p.demand.OnPrefetchHit(now, key)
		}
	} else if p.demand != nil {
		for _, v := range p.demand.OnFault(now, key) {
			p.predict(now, v)
		}
	}
	if p.hot.Access(rec.Page) {
		p.n.HotPages++
		if p.algo != nil {
			if pred, ok := p.algo.Observe(now, pid, vpn); ok {
				for _, v := range pred.Pages {
					p.predict(now, v)
				}
			}
		}
	}
	if p.after != nil {
		p.after(p.n.Records)
	}
}

// predict adds vpn to the predicted set, evicting the oldest members
// while the set is full. An evicted page was never read: that is the
// demand prefetcher's unused-eviction feedback.
func (p *Pipeline) predict(now vclock.Time, vpn memsim.VPN) {
	if p.predicted.Has(uint64(vpn)) {
		return
	}
	for p.predicted.Len() >= p.predCap && len(p.fifo) > 0 {
		old := p.fifo[0]
		p.fifo = p.fifo[1:]
		if p.predicted.Delete(uint64(old)) {
			if p.demand != nil {
				p.demand.OnPrefetchEvicted(now, memsim.PageKey{PID: pid, VPN: old}, false)
			}
		}
	}
	p.predicted.Put(uint64(vpn), struct{}{})
	p.fifo = append(p.fifo, vpn)
	p.n.Prefetches++
}

// Counts returns the cumulative totals.
func (p *Pipeline) Counts() Counts { return p.n }

// Buffered reports how many bytes of a record torn at the end of the
// last piece are waiting for the rest of the stream.
func (p *Pipeline) Buffered() int { return p.dec.Buffered() }

// DecoderState snapshots the record framing and sequence accounting.
func (p *Pipeline) DecoderState() hmtt.DecoderState { return p.dec.State() }

// Resume continues a stream interrupted at dec with totals c: framing,
// sequence accounting, clock and counts pick up exactly where they
// stopped. The HPD table, algorithm and predicted set start cold.
func (p *Pipeline) Resume(dec hmtt.DecoderState, c Counts) {
	p.dec.Restore(dec)
	p.n = c
}

// Algorithm returns the HoPP prediction algorithm, nil for other
// systems.
func (p *Pipeline) Algorithm() core.Algorithm { return p.algo }

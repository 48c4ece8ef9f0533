package mc

import (
	"fmt"
	"sort"

	"hopp/internal/hpd"
	"hopp/internal/memsim"
	"hopp/internal/rpt"
	"hopp/internal/vclock"
)

// Tracker is the memory-side trace source the machine drives: the
// single-channel Controller, the multi-channel composition below, and
// the §V HMTT-based prototype all implement it.
type Tracker interface {
	// ObserveMiss feeds one LLC miss.
	ObserveMiss(now vclock.Time, pa memsim.PAddr, write bool)
	// DrainInto removes up to max buffered hot page records (all if
	// max<=0), appending them to a caller-owned buffer, so a
	// steady-state drain loop allocates nothing.
	DrainInto(buf []HotPage, max int) []HotPage
	// Pending reports how many hot page records await draining. The
	// machine gates DrainInto on it, keeping the common no-hot-page DRAM
	// miss to a counter check. Implementations may do work to answer
	// (the §V prototype runs its software pipeline).
	Pending() int
	// SetMapping is the set_pte_at maintenance hook.
	SetMapping(ppn memsim.PPN, pid memsim.PID, vpn memsim.VPN, shared bool, huge rpt.HugeClass)
	// ClearMapping is the pte_clear maintenance hook.
	ClearMapping(ppn memsim.PPN)
	// Stats returns the aggregate bandwidth/event ledger.
	Stats() Stats
	// RPTCacheStats returns aggregate RPT cache counters.
	RPTCacheStats() rpt.CacheStats
	// HPDStats returns aggregate hot page detection counters.
	HPDStats() hpd.Stats
}

var _ Tracker = (*Controller)(nil)

// MultiConfig configures a multi-channel memory controller per §III-B's
// "impact of multiple memory channels" discussion.
type MultiConfig struct {
	// Channels is the number of memory controllers. Default 1.
	Channels int
	// Interleaved spreads consecutive cachelines of a page across
	// channels (the common BIOS configuration); false partitions the
	// physical address space so each page lives wholly in one channel.
	Interleaved bool
	// PerChannel configures each controller. When Interleaved, the HPD
	// threshold is divided by the channel count ("we need to reduce N"),
	// floored at 1, unless the caller set an explicit threshold and
	// KeepThreshold.
	PerChannel Config
	// KeepThreshold disables the automatic N reduction.
	KeepThreshold bool
}

// Multi is a bank of per-channel controllers whose hot page outputs are
// merged in timestamp order — "different hot pages are extracted from
// different MCs; we can merge them in the prefetch training framework"
// (§III-B). Repeated extractions of one page from several interleaved
// channels are expected; the training framework deduplicates them.
type Multi struct {
	cfg      MultiConfig
	channels []*Controller
}

// NewMulti builds the controller bank.
func NewMulti(cfg MultiConfig) (*Multi, error) {
	if cfg.Channels == 0 {
		cfg.Channels = 1
	}
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("mc: channel count %d", cfg.Channels)
	}
	per := cfg.PerChannel
	if cfg.Interleaved && !cfg.KeepThreshold && cfg.Channels > 1 {
		n := per.HPD.Threshold
		if n == 0 {
			n = 8
		}
		n /= cfg.Channels
		if n < 1 {
			n = 1
		}
		per.HPD.Threshold = n
	}
	m := &Multi{cfg: cfg}
	for i := 0; i < cfg.Channels; i++ {
		c, err := New(per)
		if err != nil {
			return nil, err
		}
		m.channels = append(m.channels, c)
	}
	return m, nil
}

// MustNewMulti is NewMulti for known-good configs.
func MustNewMulti(cfg MultiConfig) *Multi {
	m, err := NewMulti(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Channels returns the number of controllers.
func (m *Multi) Channels() int { return len(m.channels) }

// route picks the channel owning a physical address.
func (m *Multi) route(pa memsim.PAddr) *Controller {
	n := uint64(len(m.channels))
	if n == 1 {
		return m.channels[0]
	}
	if m.cfg.Interleaved {
		return m.channels[pa.Line()%n]
	}
	return m.channels[uint64(pa.Page())%n]
}

// ObserveMiss implements Tracker.
func (m *Multi) ObserveMiss(now vclock.Time, pa memsim.PAddr, write bool) {
	m.route(pa).ObserveMiss(now, pa, write)
}

// DrainInto implements Tracker: hot pages from all channels, merged
// into global timestamp order — channels are appended in order and the
// appended region stably sorted by timestamp.
func (m *Multi) DrainInto(buf []HotPage, max int) []HotPage {
	if len(m.channels) == 1 {
		return m.channels[0].DrainInto(buf, max)
	}
	start := len(buf)
	for _, c := range m.channels {
		buf = c.DrainInto(buf, 0)
	}
	merged := buf[start:]
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Time < merged[j].Time })
	if max > 0 && len(merged) > max {
		// Requeue semantics are not needed by any caller; the machine
		// always drains fully. Truncate defensively.
		buf = buf[:start+max]
	}
	return buf
}

// Pending implements Tracker: the sum of per-channel backlogs.
func (m *Multi) Pending() int {
	n := 0
	for _, c := range m.channels {
		n += c.Pending()
	}
	return n
}

// SetMapping implements Tracker: maintenance broadcasts to every
// channel's RPT cache (each MC caches the one shared in-DRAM RPT).
func (m *Multi) SetMapping(ppn memsim.PPN, pid memsim.PID, vpn memsim.VPN, shared bool, huge rpt.HugeClass) {
	for _, c := range m.channels {
		c.SetMapping(ppn, pid, vpn, shared, huge)
	}
}

// ClearMapping implements Tracker.
func (m *Multi) ClearMapping(ppn memsim.PPN) {
	for _, c := range m.channels {
		c.ClearMapping(ppn)
	}
}

// Stats implements Tracker: the sum over channels.
func (m *Multi) Stats() Stats {
	var s Stats
	for _, c := range m.channels {
		cs := c.Stats()
		s.ReadMisses += cs.ReadMisses
		s.WriteMisses += cs.WriteMisses
		s.HotEmitted += cs.HotEmitted
		s.HotUnmapped += cs.HotUnmapped
		s.Dropped += cs.Dropped
		s.MissBytes += cs.MissBytes
		s.HotBytes += cs.HotBytes
		s.RPTBytes += cs.RPTBytes
	}
	return s
}

// RPTCacheStats implements Tracker.
func (m *Multi) RPTCacheStats() rpt.CacheStats {
	var s rpt.CacheStats
	for _, c := range m.channels {
		cs := c.RPTCacheStats()
		s.Lookups += cs.Lookups
		s.Hits += cs.Hits
		s.Misses += cs.Misses
		s.Writebacks += cs.Writebacks
	}
	return s
}

// HPDStats implements Tracker.
func (m *Multi) HPDStats() hpd.Stats {
	var s hpd.Stats
	for _, c := range m.channels {
		cs := c.HPDStats()
		s.Accesses += cs.Accesses
		s.HotPages += cs.HotPages
		s.Insertions += cs.Insertions
		s.Evictions += cs.Evictions
		s.SendSuppressed += cs.SendSuppressed
		s.EvictedBeforeHot += cs.EvictedBeforeHot
	}
	return s
}

var _ Tracker = (*Multi)(nil)

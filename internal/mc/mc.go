// Package mc assembles HoPP's modified memory controller (Fig. 4, steps
// 1–2): LLC READ misses flow into the hot page detection table
// (internal/hpd); pages crossing the hot threshold are translated by the
// reverse page table cache (internal/rpt) into {PID, VPN} combos and
// appended to the hot page area — a reserved DRAM ring the HoPP software
// drains (step 3).
//
// The controller also keeps the bandwidth ledger behind Table V: every
// observed miss moves one 64 B cacheline; every hot-page extraction
// writes one 8 B combo record; every RPT cache miss/writeback moves one
// 8 B entry to or from DRAM.
package mc

import (
	"hopp/internal/hpd"
	"hopp/internal/memsim"
	"hopp/internal/rpt"
	"hopp/internal/vclock"
)

// HotPage is one record in the hot page area: the output of the hardware
// and the input of the prefetch training framework.
type HotPage struct {
	// Time is when the extraction happened. Real hardware conveys order
	// implicitly; the simulator timestamps for timeliness accounting.
	Time vclock.Time
	PID  memsim.PID
	VPN  memsim.VPN
	// PPN is kept for diagnostics; the software side keys on PID+VPN.
	PPN memsim.PPN
	// Shared and Huge are forwarded from the RPT entry for the software
	// to exploit (§III-C: "It is up to the software to use this
	// information for better predictions").
	Shared bool
	Huge   rpt.HugeClass
	// Mapped is false when the RPT had no valid entry for the PPN (e.g.
	// a kernel page); the software drops such records.
	Mapped bool
}

// HotRecordSize is the in-DRAM size of one hot page combo record.
const HotRecordSize = 8

// Config configures the controller.
type Config struct {
	// HPD is the hot page detection geometry (defaults per §III-B).
	HPD hpd.Config
	// RPTCache is the RPT cache geometry (defaults per §III-C).
	RPTCache rpt.CacheConfig
	// BufferCap is the hot page area capacity in records; when the
	// software falls behind, the oldest records are overwritten.
	// Default 1 << 16.
	BufferCap int
}

// Stats is the controller's bandwidth and event ledger.
type Stats struct {
	// ReadMisses and WriteMisses count LLC misses observed, by kind.
	ReadMisses  uint64
	WriteMisses uint64
	// HotEmitted counts hot page records appended to the hot page area.
	HotEmitted uint64
	// HotUnmapped counts hot pages whose RPT entry was invalid.
	HotUnmapped uint64
	// Dropped counts hot records lost to buffer overwrite.
	Dropped uint64
	// MissBytes is total LLC-miss traffic (64 B per miss, both kinds).
	MissBytes uint64
	// HotBytes is traffic from writing hot page combos (8 B each).
	HotBytes uint64
	// RPTBytes is traffic from RPT cache fills and writebacks.
	RPTBytes uint64
}

// HPDBandwidthRatio is extra bandwidth spent writing hot pages relative
// to the application's own memory traffic — Table V "HPD" row.
func (s Stats) HPDBandwidthRatio() float64 {
	if s.MissBytes == 0 {
		return 0
	}
	return float64(s.HotBytes) / float64(s.MissBytes)
}

// RPTBandwidthRatio is extra bandwidth spent on RPT DRAM queries —
// Table V "RPT" row.
func (s Stats) RPTBandwidthRatio() float64 {
	if s.MissBytes == 0 {
		return 0
	}
	return float64(s.RPTBytes) / float64(s.MissBytes)
}

// Controller is the modified memory controller.
type Controller struct {
	hpd      *hpd.Table
	rptTable *rpt.Table
	rptCache *rpt.Cache

	// buf is the hot page area, a ring of up to bufCap records. It
	// starts small and doubles on demand while below bufCap, so an idle
	// or lightly-loaded controller never pays for the full reserved
	// area; records are dropped (oldest first) only once the ring has
	// reached bufCap and is full — exactly the fixed-size behavior.
	buf    []HotPage
	bufCap int
	head   int
	tail   int
	count  int

	stats Stats

	rptBytesBase uint64
}

// New builds a controller; zero-valued config fields take the paper's
// defaults.
func New(cfg Config) (*Controller, error) {
	table, err := hpd.New(cfg.HPD)
	if err != nil {
		return nil, err
	}
	rptTable := rpt.NewTable()
	cache, err := rpt.NewCache(rptTable, cfg.RPTCache)
	if err != nil {
		return nil, err
	}
	if cfg.BufferCap <= 0 {
		cfg.BufferCap = 1 << 16
	}
	initial := cfg.BufferCap
	if initial > 256 {
		initial = 256
	}
	return &Controller{
		hpd:      table,
		rptTable: rptTable,
		rptCache: cache,
		buf:      make([]HotPage, initial),
		bufCap:   cfg.BufferCap,
	}, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// ObserveMiss feeds one LLC miss to the controller. Both READ and WRITE
// misses reach HPD, because a write miss first fetches the line — "a
// WRITE-miss operation will first generate a READ trace" (§III-B). What
// the design omits is the deferred WRITE (writeback) traffic, which the
// simulation does not route through ObserveMiss at all; RDMA-completion
// DMA writes likewise bypass it. It is ObserveRun with a run of one.
func (c *Controller) ObserveMiss(now vclock.Time, pa memsim.PAddr, write bool) {
	c.ObserveRun(now, pa.Page(), 1, write)
}

// ToHot returns how many more misses to ppn make it a hot page, 0 when
// its hot record was already sent; see hpd.(*Table).ToHot.
func (c *Controller) ToHot(ppn memsim.PPN) int { return c.hpd.ToHot(ppn) }

// ObserveRun feeds n consecutive LLC misses to page ppn, all reads or
// all writes, and leaves the controller as n ObserveMiss calls would
// when only the last of them may cross the hot threshold: a caller
// clips n to ToHot(ppn), and now is the last miss's time, which stamps
// the hot record if that miss crossed. A run that cannot cross (n below
// ToHot, or ToHot 0) is charged as one sum whatever now is.
//
//hopplint:hotpath
func (c *Controller) ObserveRun(now vclock.Time, ppn memsim.PPN, n int, write bool) {
	if write {
		c.stats.WriteMisses += uint64(n)
	} else {
		c.stats.ReadMisses += uint64(n)
	}
	if !c.hpd.AccessRun(ppn, n) {
		return
	}
	entry := c.rptCache.Lookup(ppn)
	c.accountRPT()
	hp := HotPage{
		Time:   now,
		PID:    entry.PID,
		VPN:    entry.VPN,
		PPN:    ppn,
		Shared: entry.Shared,
		Huge:   entry.Huge,
		Mapped: entry.Valid,
	}
	if !entry.Valid {
		c.stats.HotUnmapped++
	}
	c.push(hp)
	c.stats.HotEmitted++
}

func (c *Controller) accountRPT() {
	total := c.rptTable.DRAMBytes()
	c.stats.RPTBytes = total - c.rptBytesBase
}

func (c *Controller) push(hp HotPage) {
	if c.count == len(c.buf) {
		if len(c.buf) < c.bufCap {
			c.grow()
		} else {
			c.tail++
			if c.tail == len(c.buf) {
				c.tail = 0
			}
			c.count--
			c.stats.Dropped++
		}
	}
	c.buf[c.head] = hp
	c.head++
	if c.head == len(c.buf) {
		c.head = 0
	}
	c.count++
}

// grow doubles the ring (clamped to bufCap), linearizing so the oldest
// record lands at index 0.
func (c *Controller) grow() {
	n := 2 * len(c.buf)
	if n > c.bufCap {
		n = c.bufCap
	}
	//hopplint:allocok amortized ring doubling clamped to bufCap; the warmed ring is reused forever after
	grown := make([]HotPage, n)
	m := copy(grown, c.buf[c.tail:])
	copy(grown[m:], c.buf[:c.tail])
	c.buf = grown
	c.tail = 0
	c.head = c.count
}

// DrainInto removes up to max hot page records (all when max <= 0),
// oldest first, appending them to a caller-owned buffer. This is the
// HoPP software's read of the hot page area; the machine hands the same
// backing slice back on every drain, so steady-state draining costs no
// heap traffic.
//
//hopplint:hotpath
func (c *Controller) DrainInto(buf []HotPage, max int) []HotPage {
	n := c.count
	if max > 0 && max < n {
		n = max
	}
	for i := 0; i < n; i++ {
		//hopplint:allocok appends into the caller-owned drain buffer; the machine hands the same backing slice back every drain
		buf = append(buf, c.buf[c.tail])
		c.tail++
		if c.tail == len(c.buf) {
			c.tail = 0
		}
	}
	c.count -= n
	return buf
}

// Pending returns the number of undrained hot page records.
func (c *Controller) Pending() int { return c.count }

// Stats returns a copy of the ledger. MissBytes and HotBytes are pure
// functions of the miss and emit counters, so ObserveRun does not
// maintain them per event; they are filled in here.
func (c *Controller) Stats() Stats {
	c.accountRPT()
	s := c.stats
	s.MissBytes = memsim.LineSize * (s.ReadMisses + s.WriteMisses)
	s.HotBytes = HotRecordSize * s.HotEmitted
	return s
}

// RPTCacheStats exposes the RPT cache's counters.
func (c *Controller) RPTCacheStats() rpt.CacheStats { return c.rptCache.Stats() }

// SetMapping is the kernel maintenance hook for PTE establishment
// (set_pte_at / set_pmd_at in §V): it records PPN → {PID, VPN} in the
// RPT via the cache.
func (c *Controller) SetMapping(ppn memsim.PPN, pid memsim.PID, vpn memsim.VPN, shared bool, huge rpt.HugeClass) {
	c.rptCache.Update(ppn, rpt.Entry{PID: pid, VPN: vpn, Shared: shared, Huge: huge, Valid: true})
}

// ClearMapping is the pte_clear / pmd_clear hook.
func (c *Controller) ClearMapping(ppn memsim.PPN) {
	c.rptCache.Invalidate(ppn)
}

// Preload bulk-builds the RPT directly in DRAM, modelling HoPP's startup
// traversal of all existing page tables (§III-C). The traffic for this
// one-time build is excluded from the steady-state bandwidth ledger.
//
//hopplint:testonly traceanalyze's TestCrossPathAgreement maps the trace's pages with it
func (c *Controller) Preload(ppn memsim.PPN, pid memsim.PID, vpn memsim.VPN) {
	c.rptTable.Store(ppn, rpt.Entry{PID: pid, VPN: vpn, Valid: true}.Pack())
	c.rptBytesBase = c.rptTable.DRAMBytes()
}

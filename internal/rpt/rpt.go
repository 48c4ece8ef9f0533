// Package rpt implements the Reverse Page Table of §III-C and Fig. 6: a
// PPN-indexed table mapping each physical page back to its owning
// process (PID) and virtual page number (VPN), stored in a reserved,
// uncached DRAM area, fronted by a small write-back cache inside the
// memory controller.
//
// Entries pack into 64 bits exactly as in the paper: PID (16 bits),
// VPN (40 bits), shared page flag (1 bit), huge page flags (2 bits);
// we use one of the remaining bits as a validity flag.
//
// All reads and writes go through the cache, so no coherence machinery
// between the cache and the DRAM copy is needed — exactly the argument
// of §III-C ("all RPT reads and writes pass through this RPT cache
// inside MC, which ensures consistency").
package rpt

import (
	"fmt"

	"hopp/internal/memsim"
)

// HugeClass encodes the 2-bit huge page flag.
type HugeClass uint8

// Huge page classes.
const (
	PageBase HugeClass = iota // 4 KB
	Page2M                    // 2 MB
	Page1G                    // 1 GB
)

func (h HugeClass) String() string {
	switch h {
	case PageBase:
		return "4K"
	case Page2M:
		return "2M"
	case Page1G:
		return "1G"
	default:
		return fmt.Sprintf("HugeClass(%d)", uint8(h))
	}
}

// Entry is one RPT mapping.
type Entry struct {
	PID    memsim.PID
	VPN    memsim.VPN
	Shared bool
	Huge   HugeClass
	Valid  bool
}

// Bit layout of a packed entry.
const (
	vpnShift    = 16
	sharedShift = 56
	hugeShift   = 57
	validShift  = 59
)

// EntrySize is the in-DRAM size of one packed entry in bytes.
const EntrySize = 8

// Pack encodes the entry into its 64-bit DRAM representation.
func (e Entry) Pack() uint64 {
	w := uint64(e.PID) | uint64(e.VPN&memsim.MaxVPN)<<vpnShift
	if e.Shared {
		w |= 1 << sharedShift
	}
	w |= uint64(e.Huge&3) << hugeShift
	if e.Valid {
		w |= 1 << validShift
	}
	return w
}

// Unpack decodes a 64-bit DRAM word into an Entry.
func Unpack(w uint64) Entry {
	return Entry{
		PID:    memsim.PID(w & 0xffff),
		VPN:    memsim.VPN(w>>vpnShift) & memsim.MaxVPN,
		Shared: w&(1<<sharedShift) != 0,
		Huge:   HugeClass(w >> hugeShift & 3),
		Valid:  w&(1<<validShift) != 0,
	}
}

// Table is the DRAM-resident reverse page table, the single
// authoritative copy (Fig. 6: "The only RPT copy resides in DRAM").
type Table struct {
	entries map[memsim.PPN]uint64

	reads  uint64
	writes uint64
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{entries: make(map[memsim.PPN]uint64)}
}

// Load reads the packed entry for ppn from DRAM.
func (t *Table) Load(ppn memsim.PPN) uint64 {
	t.reads++
	return t.entries[ppn]
}

// Store writes the packed entry for ppn to DRAM.
func (t *Table) Store(ppn memsim.PPN, w uint64) {
	t.writes++
	if w == 0 {
		delete(t.entries, ppn)
		return
	}
	t.entries[ppn] = w
}

// DRAMBytes returns total RPT traffic to DRAM in bytes, the Table V
// "RPT" row numerator.
func (t *Table) DRAMBytes() uint64 { return (t.reads + t.writes) * EntrySize }

// CacheConfig sets the RPT cache geometry.
type CacheConfig struct {
	// SizeBytes is the cache capacity; entries are 8 bytes. Default 64 KB
	// (§III-C's chosen size, ≥99.7% hit rate in Table III).
	SizeBytes int
	// Ways is the associativity. Default 16 (§III-C: "We design RPT
	// cache in 16-way").
	Ways int
}

// CacheStats counts cache activity.
type CacheStats struct {
	Lookups    uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// HitRate returns Hits/Lookups, the Table III metric.
func (s CacheStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

type cline struct {
	ppn    memsim.PPN
	packed uint64
	valid  bool
	dirty  bool
	tick   uint64
}

// Cache is the write-back RPT cache inside the memory controller.
// Lines live in one flat slice (set s occupies
// lines[s*ways : (s+1)*ways]); set selection is mask-indexed (the
// constructor enforces a power-of-two set count).
type Cache struct {
	table   *Table
	lines   []cline
	ways    int
	numSets int
	setMask uint64
	tick    uint64
	stats   CacheStats
}

// NewCache builds an RPT cache in front of table.
func NewCache(table *Table, cfg CacheConfig) (*Cache, error) {
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = 64 << 10
	}
	if cfg.Ways == 0 {
		cfg.Ways = 16
	}
	entries := cfg.SizeBytes / EntrySize
	if cfg.Ways <= 0 || entries <= 0 || entries%cfg.Ways != 0 {
		return nil, fmt.Errorf("rpt: cache %d B / %d ways does not form whole sets", cfg.SizeBytes, cfg.Ways)
	}
	numSets := entries / cfg.Ways
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("rpt: cache set count %d must be a power of two", numSets)
	}
	return &Cache{
		table:   table,
		lines:   make([]cline, entries),
		ways:    cfg.Ways,
		numSets: numSets,
		setMask: uint64(numSets - 1),
	}, nil
}

// MustNewCache is NewCache for known-good configs.
func MustNewCache(table *Table, cfg CacheConfig) *Cache {
	c, err := NewCache(table, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Lookup translates a hot page's PPN to its Entry. A miss loads the
// entry from the DRAM table (one 8-byte read, possibly one writeback).
//
//hopplint:hotpath
func (c *Cache) Lookup(ppn memsim.PPN) Entry {
	c.tick++
	c.stats.Lookups++
	set, l := c.find(ppn)
	if l != nil {
		l.tick = c.tick
		c.stats.Hits++
		return Unpack(l.packed)
	}
	c.stats.Misses++
	packed := c.table.Load(ppn)
	c.install(set, ppn, packed, false)
	return Unpack(packed)
}

// Update installs or replaces the mapping for ppn. This is the kernel
// maintenance hook path (§III-C/§V: set_pte_at, pte_clear, set_pmd_at,
// pmd_clear); writes are absorbed by the cache and written back lazily.
func (c *Cache) Update(ppn memsim.PPN, e Entry) {
	c.tick++
	set, l := c.find(ppn)
	if l != nil {
		l.packed = e.Pack()
		l.dirty = true
		l.tick = c.tick
		return
	}
	c.install(set, ppn, e.Pack(), true)
}

// Invalidate clears the mapping for ppn (pte_clear path).
func (c *Cache) Invalidate(ppn memsim.PPN) {
	c.Update(ppn, Entry{})
}

// Flush writes back every dirty line, e.g. at shutdown.
func (c *Cache) Flush() {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid && l.dirty {
			c.table.Store(l.ppn, l.packed)
			c.stats.Writebacks++
			l.dirty = false
		}
	}
}

func (c *Cache) find(ppn memsim.PPN) (set []cline, hit *cline) {
	base := int(uint64(ppn)&c.setMask) * c.ways
	set = c.lines[base : base+c.ways]
	for i := range set {
		if set[i].valid && set[i].ppn == ppn {
			return set, &set[i]
		}
	}
	return set, nil
}

func (c *Cache) install(set []cline, ppn memsim.PPN, packed uint64, dirty bool) {
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].tick < set[victim].tick {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid && v.dirty {
		c.table.Store(v.ppn, v.packed)
		c.stats.Writebacks++
	}
	*v = cline{ppn: ppn, packed: packed, valid: true, dirty: dirty, tick: c.tick}
}

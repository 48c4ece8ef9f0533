// Package hpd implements the Hot Page Detection table of §III-B and
// Fig. 5: a tiny set-associative structure inside the memory controller
// that converts the cacheline-granularity LLC READ-miss stream into a
// stream of hot physical pages.
//
// The default geometry matches the paper: a 16-way, 4-set table (64
// concurrently tracked pages) with LRU replacement, using the lowest 2
// bits of the PPN as set index, and a hot threshold of N = 8 of the 64
// cachelines in a 4 KB page. A page whose entry carries the send bit is
// dropped (repeated detection suppression) until the entry is evicted.
package hpd

import (
	"fmt"

	"hopp/internal/lru"
	"hopp/internal/memsim"
)

// Config sets the table geometry and the hot threshold.
type Config struct {
	// Sets is the number of sets; the low log2(Sets) bits of the PPN
	// select the set. Must be a power of two. Default 4.
	Sets int
	// Ways is the associativity, at most 16. Default 16.
	Ways int
	// Threshold is N: accesses to a page before it is declared hot.
	// Valid range is [1, 64] for 4 KB pages. Default 8 (§III-B).
	Threshold int
}

// Default returns the paper's parameters.
func Default() Config { return Config{Sets: 4, Ways: 16, Threshold: 8} }

func (c *Config) fill() {
	if c.Sets == 0 {
		c.Sets = 4
	}
	if c.Ways == 0 {
		c.Ways = 16
	}
	if c.Threshold == 0 {
		c.Threshold = 8
	}
}

func (c Config) validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("hpd: sets must be a power of two, got %d", c.Sets)
	}
	if c.Ways < 1 || c.Ways > lru.MaxWays {
		return fmt.Errorf("hpd: ways must be in [1,%d], got %d", lru.MaxWays, c.Ways)
	}
	if c.Threshold < 1 || c.Threshold > memsim.LinesPerPage {
		return fmt.Errorf("hpd: threshold must be in [1,%d], got %d", memsim.LinesPerPage, c.Threshold)
	}
	return nil
}

// Stats counts table activity, the raw material for Table II's
// hot-pages/accesses ratio and Table V's bandwidth estimate.
type Stats struct {
	// Accesses is the number of READ LLC misses fed to the table.
	Accesses uint64
	// HotPages is the number of hot-page extractions emitted.
	HotPages uint64
	// Insertions is the number of new entries installed.
	Insertions uint64
	// Evictions is the number of valid entries replaced by LRU.
	Evictions uint64
	// SendSuppressed is the number of accesses dropped because the
	// entry's send bit was already set.
	SendSuppressed uint64
	// EvictedBeforeHot counts evicted entries that never reached the
	// threshold — the coarseness cost of a large N (§III-B).
	EvictedBeforeHot uint64
}

// HotRatio returns HotPages/Accesses, the Table II metric.
func (s Stats) HotRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.HotPages) / float64(s.Accesses)
}

// invalidPPN marks an empty way. Real PPNs are bounded far below 2^63.
const invalidPPN = ^uint64(0)

// Table is the hot page detection table.
//
// Entries live in parallel flat arrays (set s occupies indexes
// [s*ways, (s+1)*ways)): the match scan — run once per LLC miss —
// touches only the compact PPN array instead of striding over a
// struct-of-everything layout. Each set's recency word in ord is kept
// by the shared lru kernel: empty ways first, then true LRU.
type Table struct {
	cfg  Config
	ppns []uint64 // invalidPPN = empty way
	ord  []uint64 // per-set recency word
	lru  lru.Order
	// counts holds the per-entry access count; hotSent (negative) marks
	// an entry whose hot record was already emitted, folding the old
	// separate send-bit array into the counter the match path loads
	// anyway.
	counts []int32
	ways   int
	mask   uint64
	// lastPPN/lastIdx short-circuit repeated accesses to one page — the
	// dominant LLC-miss pattern, since a page has 64 cachelines. The
	// entry is necessarily still MRU in its set (any intervening access
	// would have changed lastPPN), so the hit skips scan and touch. Kept
	// coherent because install always reassigns both fields.
	lastPPN uint64
	lastIdx int
	stats   Stats
}

// New builds a table. It returns an error on invalid geometry so
// experiment sweeps can probe bad configs without panicking.
func New(cfg Config) (*Table, error) {
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets * cfg.Ways
	t := &Table{
		cfg:    cfg,
		ppns:   make([]uint64, n),
		counts: make([]int32, n),
		ord:    make([]uint64, cfg.Sets),
		lru:    lru.New(cfg.Ways),
		ways:   cfg.Ways,
		mask:   uint64(cfg.Sets - 1),
	}
	t.Reset()
	return t, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config) *Table {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the effective configuration.
func (t *Table) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *Table) Stats() Stats { return t.stats }

// Access feeds one READ LLC miss to the table and reports whether this
// access crossed the hot threshold, i.e. whether the PPN should be
// forwarded to the RPT cache. WRITE misses must be filtered out by the
// caller (§III-B omits WRITEs).
//
//hopplint:hotpath
func (t *Table) Access(ppn memsim.PPN) (hot bool) {
	t.stats.Accesses++
	if uint64(ppn) == t.lastPPN {
		// Still MRU in its set — no recency state needs refreshing.
		return t.onMatch(t.lastIdx)
	}
	return t.accessSlow(ppn)
}

// accessSlow is the set lookup behind Access's one-entry filter, split
// out so the filter hit — the overwhelmingly common case under
// consecutive same-page misses — inlines into the caller.
func (t *Table) accessSlow(ppn memsim.PPN) (hot bool) {
	set := int(uint64(ppn) & t.mask)
	base := set * t.ways
	ppns := t.ppns[base : base+t.ways]
	for i := range ppns {
		if ppns[i] == uint64(ppn) {
			t.lastPPN, t.lastIdx = uint64(ppn), base+i
			t.lru.Touch(&t.ord[set], i)
			return t.onMatch(base + i)
		}
	}
	w := t.lru.Claim(&t.ord[set])
	if ppns[w] != invalidPPN {
		t.stats.Evictions++
		if t.counts[base+w] >= 0 {
			t.stats.EvictedBeforeHot++
		}
	}
	return t.install(base+w, ppn)
}

// hotSent in counts marks an entry past the threshold whose record was
// emitted; further accesses are suppressed until eviction (§III-B).
const hotSent = int32(-1)

// onMatch applies one access to the already-touched entry at flat
// index v and reports whether it just crossed the hot threshold.
func (t *Table) onMatch(v int) bool {
	n := t.counts[v]
	if n < 0 {
		t.stats.SendSuppressed++
		return false
	}
	n++
	if int(n) >= t.cfg.Threshold {
		t.counts[v] = hotSent
		t.stats.HotPages++
		return true
	}
	t.counts[v] = n
	return false
}

func (t *Table) install(v int, ppn memsim.PPN) bool {
	t.lastPPN, t.lastIdx = uint64(ppn), v
	t.ppns[v] = uint64(ppn)
	t.stats.Insertions++
	if t.cfg.Threshold == 1 {
		t.counts[v] = hotSent
		t.stats.HotPages++
		return true
	}
	t.counts[v] = 1
	return false
}

// Tracked returns how many valid entries the table currently holds.
func (t *Table) Tracked() int {
	n := 0
	for _, p := range t.ppns {
		if p != invalidPPN {
			n++
		}
	}
	return n
}

// Reset clears entries and counters.
func (t *Table) Reset() {
	for i := range t.ppns {
		t.ppns[i] = invalidPPN
		t.counts[i] = 0
	}
	for i := range t.ord {
		t.ord[i] = t.lru.Empty()
	}
	t.lastPPN, t.lastIdx = invalidPPN, 0
	t.stats = Stats{}
}

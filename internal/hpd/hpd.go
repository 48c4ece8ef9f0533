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

// ToHot returns how many more accesses to ppn make it hot: Threshold for
// a page the table does not hold, Threshold minus its count for a
// tracked one, and 0 once its hot record was sent (no access can make
// it hot again until the entry is evicted). It reads the one-entry
// filter first, scans the set only when that misses, and changes no
// state, so a caller can size a run of misses before playing it.
func (t *Table) ToHot(ppn memsim.PPN) int {
	v := t.lastIdx
	if uint64(ppn) != t.lastPPN {
		base := int(uint64(ppn)&t.mask) * t.ways
		v = -1
		for i, p := range t.ppns[base : base+t.ways] {
			if p == uint64(ppn) {
				v = base + i
				break
			}
		}
		if v < 0 {
			return t.cfg.Threshold
		}
	}
	if n := t.counts[v]; n >= 0 {
		return t.cfg.Threshold - int(n)
	}
	return 0
}

// AccessRun feeds n consecutive READ LLC misses to ppn and reports
// whether one of them crossed the hot threshold; it leaves the table
// exactly as n Access calls would. The first miss goes through Access,
// which installs or touches the entry and leaves it in the one-entry
// filter; the page then stays MRU, so the other n-1 are counter
// arithmetic on that entry. A page crosses at most once per run, at the
// ToHot(ppn)-th miss: a caller that needs the crossing to be the run's
// last miss, to stamp it with that miss's time, clips n to ToHot.
func (t *Table) AccessRun(ppn memsim.PPN, n int) (hot bool) {
	if n <= 0 {
		return false
	}
	hot = t.Access(ppn)
	rest := n - 1
	if rest == 0 {
		return hot
	}
	t.stats.Accesses += uint64(rest)
	v := t.lastIdx
	c := t.counts[v]
	if c < 0 {
		t.stats.SendSuppressed += uint64(rest)
		return hot
	}
	need := t.cfg.Threshold - int(c)
	if rest < need {
		t.counts[v] = c + int32(rest)
		return false
	}
	t.counts[v] = hotSent
	t.stats.HotPages++
	t.stats.SendSuppressed += uint64(rest - need)
	return true
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

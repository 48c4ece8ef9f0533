// Package cachesim models a set-associative CPU cache hierarchy with LRU
// replacement. Its job in the HoPP reproduction is to turn a workload's
// raw cacheline access stream into the LLC-miss stream the memory
// controller actually sees (§II-D: "MC ... processes LLC-misses, which
// automatically reduces the access volume by filtering out those in-LLC
// accesses").
//
// The model is a timing-free hit/miss filter: the simulation engine
// charges latency itself based on which level hit.
//
// A level plays accesses one line at a time (Access, AccessAt) or one
// page visit at a time (AccessLines, over a mask of the page's lines).
// On a level with at least memsim.LinesPerPage sets a page's lines fall
// in distinct sets, so the lines of one mask commute: each one's hit or
// miss is fixed by the page's residency record (Resident) before the
// call, and the machine charges a whole visit from that record before
// committing it with one AccessLines per level. Both forms share the
// hit step (touch) and the way claim (claim). AccessAt settles a miss's
// eviction at once (evict); AccessLines claims the ways of all its
// missed lines first (the claim pass) and then settles their evictions
// in line order (the settle pass), clearing each victim page's evicted
// lines with one store. When the claim pass saw one old tag in every
// missed line's way (its AND equals its OR exactly then), the settle
// pass is skipped: the missed lines either filled empty ways or all
// evicted one page's same lines, which one store clears. claim reads
// no resident bit and no eviction touches the visited page's record,
// so both forms leave identical state; FuzzCacheMatchesNaive plays them
// interleaved against a naive model.
package cachesim

import (
	"fmt"
	"math/bits"

	"hopp/internal/lru"
	"hopp/internal/memsim"
	"hopp/internal/radix"
)

// Config describes one cache level. The geometry must divide into a
// power-of-two number of sets — set selection and tag extraction are a
// mask and a shift — of at most 16 ways each, the widest recency order
// package lru packs.
type Config struct {
	// Name is used in stats output, e.g. "L2", "LLC".
	Name string
	// SizeBytes is the total capacity: Ways·LineSize times a power of two.
	SizeBytes int
	// Ways is the associativity, 1–16.
	Ways int
}

// Stats counts accesses at one level.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// invalidTag marks an empty way. Tags are cacheline indexes shifted
// down by the set bits and are stored as uint32, which keeps a set's
// tags and recency word within one 72 B cacheSet. AccessAt guards the
// range loudly: a tag at or above the sentinel would need a simulated
// address beyond 2^(32+set bits+6) bytes, far past anything the
// machines model.
const invalidTag = ^uint32(0)

// Cache is a single set-associative level.
//
// Each set keeps its tags and its recency word side by side in one
// cacheSet, so a miss's claim and tag swap touch one host cacheline or
// two. The lru kernel updates the word, claiming empty ways before
// evicting the LRU line; a claimed way whose tag is not invalidTag held
// the victim.
type Cache struct {
	cfg      Config
	sets     []cacheSet
	lru      lru.Order
	setMask  uint64
	tagShift uint
	// pages holds one PageLines record per physical page, allocated by
	// the touched footprint rather than the highest page index: the
	// offline trace studies identity-map workload regions sitting at
	// distant VPN offsets, where a dense-by-PPN array would pay for the
	// gaps (gigabytes, at 72 B/page).
	pages  radix.Index[PageLines]
	victim victimCursor
	stats  Stats
}

// victimCursor remembers the page of the last evicted line and its
// record. A visit streaming through one page evicts the lines of one
// older page in turn, so nearly every eviction finds its page's record
// here instead of walking pages. Records never move, so the pointer
// stays valid for the cache's lifetime.
type victimCursor struct {
	page uint64
	pl   *PageLines
}

// cacheSet is one set's state. Ways past the level's associativity stay
// at invalidTag and are never claimed.
type cacheSet struct {
	ord  uint64
	tags [lru.MaxWays]uint32 // invalidTag = empty way
}

// PageLines is a physical page's residency record at one level. bits
// marks which of the page's 64 lines are resident — install sets a
// line's bit, eviction and invalidation clear it, and tag↔line is a
// bijection within a set, so the bit mirrors residency exactly. ways
// records the way each line occupies, written at install time. A
// resident line never changes ways, so whenever its bit is set the ways
// entry is current — hits and page invalidations index the way directly
// instead of scanning the set's tags. Stale ways entries for evicted
// lines are harmless: the bit gates every read. A record stays at its
// address for the cache's lifetime, so a caller can look it up once
// with Page and pass it to AccessAt for each of the page's lines.
type PageLines struct {
	bits uint64
	ways [memsim.LinesPerPage]uint8
}

// Resident returns the page's resident-line bitmap at the record's
// level: bit i is set while line i is resident.
func (pl *PageLines) Resident() uint64 { return pl.bits }

// Validate reports whether New can build the geometry (see Config):
// 1–16 ways dividing the size into a power-of-two number of sets.
func (cfg Config) Validate() error {
	if cfg.Ways < 1 || cfg.Ways > lru.MaxWays {
		return fmt.Errorf("cachesim: ways must be in [1,%d], got %d", lru.MaxWays, cfg.Ways)
	}
	linesTotal := cfg.SizeBytes / memsim.LineSize
	numSets := linesTotal / cfg.Ways
	if linesTotal <= 0 || linesTotal%cfg.Ways != 0 || numSets&(numSets-1) != 0 {
		return fmt.Errorf("cachesim: size %d B with %d ways does not divide into a power-of-two number of sets", cfg.SizeBytes, cfg.Ways)
	}
	return nil
}

// New builds a cache level. It panics with Validate's error on a
// malformed geometry, a programming error in experiment setup; callers
// that take a geometry from their own input validate it first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / memsim.LineSize / cfg.Ways
	c := &Cache{
		cfg:      cfg,
		sets:     make([]cacheSet, numSets),
		lru:      lru.New(cfg.Ways),
		setMask:  uint64(numSets - 1),
		tagShift: uint(bits.TrailingZeros64(uint64(numSets))),
		// No page number reaches this one, so the first eviction
		// looks its page up.
		victim: victimCursor{page: ^uint64(0)},
	}
	for i := range c.sets {
		st := &c.sets[i]
		st.ord = c.lru.Empty()
		for w := range st.tags {
			st.tags[w] = invalidTag
		}
	}
	return c
}

// Sets returns the level's number of sets.
func (c *Cache) Sets() int { return len(c.sets) }

// Name returns the level's configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Access touches the cacheline containing addr and reports whether it
// hit. On a miss the line is installed, evicting the set's LRU victim.
//
//hopplint:hotpath
func (c *Cache) Access(addr memsim.PAddr) bool {
	return c.AccessAt(c.Page(addr.Page()), addr)
}

// Page returns the residency record of physical page p, creating it on
// the page's first touch.
func (c *Cache) Page(p memsim.PPN) *PageLines { return c.pages.Slot(uint64(p)) }

// AccessAt is Access for an addr in the page whose record pl is (see
// Page): a run of accesses to one page pays the record lookup once.
//
//hopplint:hotpath
func (c *Cache) AccessAt(pl *PageLines, addr memsim.PAddr) bool {
	line := addr.Line()
	tag64 := line >> c.tagShift
	if tag64 >= uint64(invalidTag) {
		panic("cachesim: line address beyond the 32-bit tag range")
	}
	c.stats.Accesses++

	// The page record mirrors residency exactly, so one bit test decides
	// hit/miss and the recorded way replaces any tag scan: misses — the
	// regime the whole simulator exists to model — and hits alike touch
	// only the line's own set entry.
	set, li := line&c.setMask, line&(memsim.LinesPerPage-1)
	st := &c.sets[set]
	if pl.bits&(uint64(1)<<li) == 0 {
		pl.bits |= uint64(1) << li
		if old := claim(c.lru, st, pl, li, uint32(tag64)); old != invalidTag {
			c.stats.Evictions++
			el := uint64(old)<<(c.tagShift&63) | set
			c.victim = c.evict(c.victim, el>>(memsim.PageShift-memsim.LineShift), el&(memsim.LinesPerPage-1))
		}
		return false
	}
	c.stats.Hits++
	c.touch(st, int(pl.ways[li]), uint32(tag64))
	return true
}

// AccessLines plays one access to each line of page p that the mask
// lines names (bit i for line i), given p's record pl, and returns the
// mask of those that missed; they are resident on return. The result,
// Stats included, is that of AccessAt over the same lines in any order.
//
// Precondition: the level has at least memsim.LinesPerPage sets, so a
// page's lines fall in distinct sets; AccessLines panics otherwise.
// Then no line's install can evict another line of the page, and every
// line's hit or miss is the one its bit in pl shows at the call.
//
//hopplint:hotpath
func (c *Cache) AccessLines(pl *PageLines, p memsim.PPN, lines uint64) (missed uint64) {
	if c.setMask < memsim.LinesPerPage-1 {
		panic("cachesim: AccessLines on a level with fewer sets than a page has lines")
	}
	// With a set per line of the page, a line's set is the page's first
	// set plus its line index, and all its lines share one tag.
	line0 := p.LineAddr(0).Line()
	tag64 := line0 >> c.tagShift
	if tag64 >= uint64(invalidTag) {
		panic("cachesim: line address beyond the 32-bit tag range")
	}
	set0, tag := line0&c.setMask, uint32(tag64)
	// One window over the page's sets: line li's set is sets[li], and
	// every index below is masked to the window, so the call pays one
	// bounds check.
	sets := (*[memsim.LinesPerPage]cacheSet)(c.sets[set0 : set0+memsim.LinesPerPage])
	hits := lines & pl.bits
	missed = lines &^ hits
	c.stats.Accesses += uint64(bits.OnesCount64(lines))
	c.stats.Hits += uint64(bits.OnesCount64(hits))
	for rem := hits; rem != 0; rem &= rem - 1 {
		li := bits.TrailingZeros64(rem) & (memsim.LinesPerPage - 1)
		c.touch(&sets[li], int(pl.ways[li]), tag)
	}
	if missed == 0 {
		return 0
	}
	// The misses play in two passes, both in line order. The claim pass
	// claims each missed line's way and keeps the tag the way held in
	// olds. It has no branch on a loaded tag, so a mispredicted eviction
	// cannot throw away the recency-word loads of the sets after it, and
	// the host overlaps the window's set misses. The settle pass then
	// walks olds: it counts the evictions and clears each evicted line's
	// resident bit, gathering a run of evictions from one page into one
	// mask that it clears with one store when the victim page changes.
	// The passes leave the state of claim and evict line by line: claim
	// never reads a resident bit, and no eviction here touches p's record
	// (the evicted line sits in the set of p's missed line, so it is not
	// p's), so the evictions clear the same bits and the cursor ends on
	// the same page.
	//
	// The recency kernel, the victim cursor, the pending mask and the
	// eviction count stay in registers and are written back once, as are
	// p's resident bits. A line's set is set0|li and set0 has no low
	// bits, so an evicted line is line li of its own page, and that
	// page's number is its tag shifted up past the window's first page
	// number. The level has at least a page's worth of sets, so the shift
	// is not negative; the mask only spares the shift its range check.
	//
	// The claim pass also folds every old tag into same (AND) and seen
	// (OR). The AND and the OR of a set of values are equal exactly when
	// the values all are, so same == seen says every missed line's way
	// held the same tag: either every way was empty (invalidTag), and
	// nothing is evicted, or every missed line evicted line li of one
	// page, so the evicted lines are missed itself and the settle pass is
	// one cursor move and one store. Streaming a page over an older one
	// does exactly that; only the other batches run the settle loop.
	g, vc := c.lru, c.victim
	var olds [memsim.LinesPerPage]uint32
	same, seen := invalidTag, uint32(0)
	for rem := missed; rem != 0; rem &= rem - 1 {
		li := uint64(bits.TrailingZeros64(rem)) & (memsim.LinesPerPage - 1)
		old := claim(g, &sets[li], pl, li, tag)
		olds[li] = old
		same &= old
		seen |= old
	}
	pshift, page0 := (c.tagShift-(memsim.PageShift-memsim.LineShift))&63, set0>>(memsim.PageShift-memsim.LineShift)
	if same == seen {
		if seen != invalidTag {
			if vp := uint64(seen)<<pshift | page0; vp != vc.page {
				c.victim = victimCursor{vp, c.pages.At(vp)}
			}
			c.victim.pl.bits &^= missed
			c.stats.Evictions += uint64(bits.OnesCount64(missed))
		}
		pl.bits |= missed
		return missed
	}
	var evictions, pending uint64 // pending: evicted lines of page vc.page
	for rem := missed; rem != 0; rem &= rem - 1 {
		li := uint64(bits.TrailingZeros64(rem)) & (memsim.LinesPerPage - 1)
		if old := olds[li]; old != invalidTag {
			evictions++
			if vp := uint64(old)<<pshift | page0; vp != vc.page {
				if pending != 0 {
					vc.pl.bits &^= pending
					pending = 0
				}
				vc = victimCursor{vp, c.pages.At(vp)}
			}
			pending |= uint64(1) << li
		}
	}
	if pending != 0 {
		vc.pl.bits &^= pending
	}
	pl.bits |= missed
	c.victim = vc
	c.stats.Evictions += evictions
	return missed
}

// The steps below are small enough to inline (go build -gcflags=-m lists
// them; touch sits at the budget), so neither AccessAt nor AccessLines
// pays a call per line. AccessLines settles its evictions in its own
// settle pass; evict is AccessAt's.

// touch is the hit step: it refreshes way w of set st, which the page
// record names as holding the line with the given tag.
func (c *Cache) touch(st *cacheSet, w int, tag uint32) {
	if st.tags[w] != tag {
		panic("cachesim: page record marks a line resident but its recorded way holds another tag")
	}
	c.lru.Touch(&st.ord, w)
}

// claim is the miss step's install: it puts the line with the given
// tag, line li of the page whose record is pl, in the way g claims in
// set st — an empty way while the set has one, else the LRU way — and
// returns the tag that way held, invalidTag if it was empty. The caller
// sets the line's resident bit.
func claim(g lru.Order, st *cacheSet, pl *PageLines, li uint64, tag uint32) (old uint32) {
	w := g.Claim(&st.ord) & (lru.MaxWays - 1)
	old, st.tags[w] = st.tags[w], tag
	pl.ways[li&(memsim.LinesPerPage-1)] = uint8(w)
	return old
}

// evict is the miss step's eviction: line li of page vp has lost its
// way, so its record's bit is cleared. It finds the record through the
// victim cursor vc and returns the cursor moved to vp. The record
// exists because the line was installed through Page's record.
func (c *Cache) evict(vc victimCursor, vp, li uint64) victimCursor {
	if vp != vc.page {
		vc = victimCursor{vp, c.pages.At(vp)}
	}
	vc.pl.bits &^= uint64(1) << (li & (memsim.LinesPerPage - 1))
	return vc
}

// InvalidatePage drops every line of the given physical page, as happens
// when the kernel reclaims the page. Returns how many lines were dropped.
func (c *Cache) InvalidatePage(p memsim.PPN) int {
	pl := c.pages.Get(uint64(p))
	if pl == nil {
		return 0
	}
	resident := pl.bits
	pl.bits = 0
	// The recorded way pinpoints each resident line without a tag scan.
	line0 := p.LineAddr(0).Line()
	for rem := resident; rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros64(rem)
		line := line0 + uint64(i)
		st, w := &c.sets[line&c.setMask], int(pl.ways[i])
		if st.tags[w] != uint32(line>>c.tagShift) {
			panic("cachesim: page record marks a line resident but its recorded way holds another tag")
		}
		st.tags[w] = invalidTag
		c.lru.Drop(&st.ord, w)
	}
	return bits.OnesCount64(resident)
}

// Level identifies which part of the hierarchy satisfied an access.
type Level int

// Hierarchy levels, ordered from closest to the core outward.
const (
	LevelL2 Level = iota
	LevelLLC
	LevelMemory
)

func (l Level) String() string {
	switch l {
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	default:
		return "memory"
	}
}

// Hierarchy is a non-inclusive L2 in front of an LLC: a miss installs
// the line at each level it missed, and an LLC eviction leaves the
// line's L2 copy in place. An access that misses both reaches memory
// (and therefore the memory controller).
type Hierarchy struct {
	L2, LLC *Cache
}

// NewHierarchy builds a hierarchy from its two levels.
func NewHierarchy(l2, llc *Cache) Hierarchy { return Hierarchy{L2: l2, LLC: llc} }

// DefaultHierarchy models the testbed's per-workload share of a server
// class cache: a 1 MB 16-way L2 in front of a 16 MB 16-way LLC. Sized so
// working sets larger than tens of MBs stream through to memory, as on
// the paper's 14-core Xeons.
func DefaultHierarchy() Hierarchy {
	return NewHierarchy(
		New(Config{Name: "L2", SizeBytes: 1 << 20, Ways: 16}),
		New(Config{Name: "LLC", SizeBytes: 16 << 20, Ways: 16}),
	)
}

// Access looks the line up in L2, then in the LLC, and returns the level
// that satisfied it; LevelMemory means an LLC miss that the MC will
// observe. Missed levels install the line.
//
//hopplint:hotpath
func (h Hierarchy) Access(addr memsim.PAddr) Level {
	if h.L2.Access(addr) {
		return LevelL2
	}
	if h.LLC.Access(addr) {
		return LevelLLC
	}
	return LevelMemory
}

// InvalidatePage drops the page's lines from both levels.
func (h Hierarchy) InvalidatePage(p memsim.PPN) {
	h.L2.InvalidatePage(p)
	h.LLC.InvalidatePage(p)
}

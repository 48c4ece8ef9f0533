package cachesim

import (
	"math/bits"
	"testing"

	"hopp/internal/memsim"
)

// naiveCache is the reference model of one level, written from the
// policy rather than the packed implementation: each set is a slice of
// resident lines with last-use stamps, a miss appends while the set has
// room and otherwise replaces the oldest stamp, and page invalidation
// scans every set.
type naiveCache struct {
	ways  int
	sets  [][]naiveLine
	tick  uint64
	stats Stats
}

type naiveLine struct {
	line  uint64
	stamp uint64
}

func newNaiveCache(numSets, ways int) *naiveCache {
	return &naiveCache{ways: ways, sets: make([][]naiveLine, numSets)}
}

func (n *naiveCache) access(addr memsim.PAddr) bool {
	n.tick++
	n.stats.Accesses++
	line := addr.Line()
	set := &n.sets[line%uint64(len(n.sets))]
	for i := range *set {
		if (*set)[i].line == line {
			(*set)[i].stamp = n.tick
			n.stats.Hits++
			return true
		}
	}
	n.stats.Misses++
	if len(*set) < n.ways {
		*set = append(*set, naiveLine{line, n.tick})
		return false
	}
	oldest := 0
	for i := range *set {
		if (*set)[i].stamp < (*set)[oldest].stamp {
			oldest = i
		}
	}
	n.stats.Evictions++
	(*set)[oldest] = naiveLine{line, n.tick}
	return false
}

func (n *naiveCache) invalidatePage(p memsim.PPN) int {
	dropped := 0
	for s := range n.sets {
		kept := n.sets[s][:0]
		for _, l := range n.sets[s] {
			if l.line>>(memsim.PageShift-memsim.LineShift) == uint64(p) {
				dropped++
				continue
			}
			kept = append(kept, l)
		}
		n.sets[s] = kept
	}
	return dropped
}

// fuzzPages are the 32 pages the fuzz ops name: eight around each of
// four places in the page record index, whose radix leaves hold 512
// pages and whose middle nodes hold 2^18. They straddle the first
// leaf's start, a leaf boundary, a middle-node boundary, and a far
// middle node still low enough that a one-set cache's tags fit in 32
// bits.
var fuzzPages = func() (ps [32]memsim.PPN) {
	bases := [...]memsim.PPN{4, 512, 1 << 18, 1<<25 + 1<<18}
	for i := range ps {
		ps[i] = bases[i/8] - 4 + memsim.PPN(i%8)
	}
	return ps
}()

// FuzzCacheMatchesNaive decodes a geometry and an access/invalidate
// stream from the input and requires Cache to agree with naiveCache on
// every access result, every InvalidatePage count and the final Stats.
// data[0] picks 1–16 ways, data[1] 1–128 sets; each following byte pair
// (x, y) names page fuzzPages[x%32] and an op by y:
//   - y < 176: Access line y%64 of the page;
//   - 176 ≤ y < 192: a visit mask, as the machine's visit batch plays
//     it: the next up to 8 bytes, little-endian, are a line mask, and
//     AccessLines plays it once over the page's record from Page. Each
//     masked line's hit or miss must match the naive cache playing the
//     lines one by one. A level with fewer sets than a page has lines
//     must refuse the mask with a panic instead;
//   - 192 ≤ y < 248: a run, as the machine plays a visit: take the
//     page's record once with Page, then read one byte z per step until
//     the input ends or z ≥ 248. Each z < 216 plays the run's next line
//     (from line y-192, wrapping at the page end) through AccessAt; each
//     z in [216, 248) invalidates fuzzPages[z-216] in mid-run, the run's
//     own page included;
//   - y ≥ 248: InvalidatePage of the page.
//
// A run over a page whose lines evict lines of several older pages
// makes the cache's remembered victim record switch pages in mid-run.
func FuzzCacheMatchesNaive(f *testing.F) {
	f.Add([]byte{15, 2, 1, 0, 1, 0, 2, 0, 3, 0, 1, 255, 1, 0})
	f.Add([]byte{1, 7, 3, 5, 4, 5, 3, 5, 3, 9, 4, 9, 5, 9, 3, 250, 3, 5})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 1, 1, 0, 1, 2, 2})
	// Two ways, one set (fuzz page i is fuzzPages[i]): fuzz pages 0 and
	// 9 fill the set, then a run over fuzz page 17 evicts page 0's line
	// (victim 0), page 9's (victim 9) and its own lines (victim 17). Invalidating its own page in mid-run
	// empties the set, and the run's next lines fill it without evicting.
	f.Add([]byte{1, 0, 0, 0, 9, 0, 17, 192, 0, 0, 0, 0, 233, 0, 0, 255, 9, 1, 17, 2})
	// Four ways, two sets: fuzz pages from all four index
	// neighbourhoods fill both sets, a run over fuzz page 19 evicts one
	// line of each in turn, and it and a second run over fuzz page 4
	// invalidate each other's page in mid-run.
	f.Add([]byte{3, 1, 3, 0, 4, 1, 11, 2, 12, 3, 19, 4, 20, 5, 27, 6, 28, 7,
		19, 200, 1, 1, 1, 1, 220, 1, 1, 1, 1, 1, 1, 1, 1, 248,
		4, 230, 1, 1, 235, 1, 1, 1, 1, 255, 27, 0, 3, 250})
	// One way, 128 sets: a run over fuzz page 24 from line 55 evicts
	// fuzz page 0's lines, wraps from its last line to its first, evicts
	// fuzz page 2's line there, and invalidates its own page in mid-run.
	f.Add([]byte{0, 7, 0, 55, 0, 63, 2, 0, 24, 247, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 240, 1, 255, 2, 0, 24, 55})
	// One way, 64 sets, so line i of every page sits in set i: fuzz
	// pages 0 and 1 each leave lines, then a mask over all of fuzz page
	// 8 evicts them (the remembered victim switches between the two
	// pages), a mask over fuzz page 0's lines 0 and 5 evicts fuzz page
	// 8's in turn, and page 8's line 3 still hits.
	f.Add([]byte{0, 6, 0, 0, 0, 5, 1, 63, 1, 7,
		8, 176, 255, 255, 255, 255, 255, 255, 255, 255,
		0, 177, 0x21, 0, 0, 0, 0, 0, 0, 0,
		8, 3, 8, 0})
	// Two ways, 128 sets, so even pages share sets 0–63: masks that
	// half hit (fuzz page 0's lines 0–7 after 0–3 and 60–63), then
	// full-page masks over fuzz pages 10 and 18, the second of which
	// pushes page 0's lines out in LRU order; then a per-line miss, an
	// invalidation and a mask over the emptied page.
	f.Add([]byte{1, 7, 0, 176, 0x0f, 0, 0, 0, 0, 0, 0, 0xf0,
		0, 180, 0xff, 0, 0, 0, 0, 0, 0, 0,
		10, 190, 255, 255, 255, 255, 255, 255, 255, 255,
		18, 191, 255, 255, 255, 255, 255, 255, 255, 255,
		0, 2, 0, 255, 0, 176, 1})
	// The victim cursor a mask leaves behind, which AccessLines keeps
	// in locals and writes back once. One way, 64 sets, so line i of
	// every page sits in set i. Fuzz page 0's lines 0 and 1 and fuzz
	// page 1's lines 2 and 3 fill their sets, and fuzz page 2's line 0
	// evicts page 0's, so the cursor is on fuzz page 0. A mask over
	// fuzz page 8's line 2 evicts page 1's line 2 and moves the cursor
	// to fuzz page 1; then per-line misses evict page 1's line 3 (the
	// cursor's page) and, in the next seed, page 0's line 1 (the page
	// the cursor left). A cursor written back by halves, its page
	// number without its record or its record without its page number,
	// clears the wrong page's bit, and the evicted line's next access
	// finds a stale record.
	f.Add([]byte{0, 6, 0, 0, 0, 1, 1, 2, 1, 3, 2, 0,
		8, 176, 0x04, 0, 0, 0, 0, 0, 0, 0,
		3, 3, 1, 3, 0, 1})
	f.Add([]byte{0, 6, 0, 0, 0, 1, 1, 2, 1, 3, 2, 0,
		8, 176, 0x04, 0, 0, 0, 0, 0, 0, 0,
		3, 1, 0, 1, 1, 3})
	// The same geometry and cursor on fuzz page 0, then a mask over
	// fuzz page 8's lines 5 and 6 that misses into empty ways and evicts
	// nothing, so the cursor must come back unchanged; fuzz page 3's
	// line 1 then evicts page 0's line 1 through it.
	f.Add([]byte{0, 6, 0, 0, 0, 1, 2, 0,
		8, 176, 0x60, 0, 0, 0, 0, 0, 0, 0,
		3, 1, 0, 1, 8, 5})
	// Four ways, two sets: too few sets for a mask, which must panic.
	f.Add([]byte{3, 1, 0, 0, 0, 180, 3})
	// AccessLines claims every missed line's way before it settles any
	// eviction, so its settle pass reads each line's old tag back from
	// the claim pass and moves the victim cursor between pages in line
	// order. One way, 64 sets: fuzz pages 0, 1, 0 and 2 (A, B, A, C)
	// hold lines 0–3, and a mask over fuzz page 8's lines 0–3 evicts them
	// in that order, so the cursor returns to an earlier page. Each
	// evicted line is then accessed again: a settle pass that pairs a
	// line with another line's old tag, or keeps the record of the page
	// it left, clears the wrong bit, and a later access finds a stale
	// record.
	f.Add([]byte{0, 6, 0, 0, 1, 1, 0, 2, 2, 3,
		8, 176, 0x0f, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 1, 1, 0, 2, 2, 3, 8, 176, 0x0f, 0, 0, 0, 0, 0, 0, 0,
		0, 2, 2, 3})
	// Two ways, 64 sets: fuzz page 0 holds lines 0, 2, 4 and 6 and fuzz
	// page 1 lines 0 and 2, so sets 0 and 2 are full and sets 4 and 6
	// have an empty way. One mask over fuzz page 8's lines 0, 2, 4 and 6
	// evicts page 0's lines 0 and 2 and fills the empty ways of lines 4
	// and 6 in the same call; page 0's lines 4 and 6 still hit, its lines
	// 0 and 2 miss. The lines are not adjacent, so a settle pass that
	// finds a line's old tag by its rank among the missed lines rather
	// than by its line number reads another line's.
	f.Add([]byte{1, 6, 0, 0, 0, 2, 0, 4, 0, 6, 1, 0, 1, 2,
		8, 176, 0x55, 0, 0, 0, 0, 0, 0, 0,
		0, 4, 0, 6, 0, 0, 0, 2, 1, 0, 1, 2, 8, 4, 8, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways, numSets := int(data[0]%16)+1, 1<<(data[1]%8)
		c := New(Config{Name: "F", SizeBytes: numSets * ways * memsim.LineSize, Ways: ways})
		n := newNaiveCache(numSets, ways)
		invalidate := func(i int, p memsim.PPN) {
			if got, want := c.InvalidatePage(p), n.invalidatePage(p); got != want {
				t.Fatalf("byte %d: InvalidatePage(%d) = %d, naive %d", i, p, got, want)
			}
		}
		for i := 2; i+1 < len(data); i += 2 {
			p, y := fuzzPages[data[i]%32], data[i+1]
			switch {
			case y >= 248:
				invalidate(i, p)
			case y >= 176 && y < 192:
				var mask uint64
				for k := 0; k < 8 && i+2 < len(data); k++ {
					mask |= uint64(data[i+2]) << (8 * k)
					i++
				}
				visitMask(t, i, c, n, p, mask)
			case y >= 192:
				pl, line := c.Page(p), int(y-192)
				for ; i+2 < len(data) && data[i+2] < 248; i++ {
					if z := data[i+2]; z >= 216 {
						invalidate(i+2, fuzzPages[z-216])
						continue
					}
					addr := p.LineAddr(line)
					if got, want := c.AccessAt(pl, addr), n.access(addr); got != want {
						t.Fatalf("byte %d: AccessAt(%#x) hit=%v, naive %v", i+2, addr, got, want)
					}
					line = (line + 1) % memsim.LinesPerPage
				}
				i++ // the terminator, or past the end
			default:
				addr := p.LineAddr(int(y % memsim.LinesPerPage))
				if got, want := c.Access(addr), n.access(addr); got != want {
					t.Fatalf("byte %d: Access(%#x) hit=%v, naive %v", i, addr, got, want)
				}
			}
		}
		if got := c.Stats(); got != n.stats {
			t.Fatalf("stats %+v, naive %+v", got, n.stats)
		}
	})
}

// visitMask plays mask over page p through c's AccessLines and the
// naive cache's per-line access, in ascending line order, and fails at
// the first line whose hit or miss differs. On a level with fewer sets
// than a page has lines AccessLines must panic and play nothing.
func visitMask(t *testing.T, i int, c *Cache, n *naiveCache, p memsim.PPN, mask uint64) {
	t.Helper()
	pl := c.Page(p)
	if len(n.sets) < memsim.LinesPerPage {
		defer func() {
			if recover() == nil {
				t.Fatalf("byte %d: AccessLines on %d sets did not panic", i, len(n.sets))
			}
		}()
		c.AccessLines(pl, p, mask)
		return
	}
	missed := c.AccessLines(pl, p, mask)
	if missed&^mask != 0 {
		t.Fatalf("byte %d: AccessLines(%#x) missed %#x, outside the mask", i, mask, missed)
	}
	for rem := mask; rem != 0; rem &= rem - 1 {
		line := bits.TrailingZeros64(rem)
		hit, want := missed&(uint64(1)<<line) == 0, n.access(p.LineAddr(line))
		if hit != want {
			t.Fatalf("byte %d: AccessLines(%#x) line %d hit=%v, naive %v", i, mask, line, hit, want)
		}
	}
	if pl.Resident()&mask != mask {
		t.Fatalf("byte %d: lines %#x not resident after AccessLines(%#x)", i, mask&^pl.Resident(), mask)
	}
}

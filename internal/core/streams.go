package core

import (
	"fmt"
	"math"
	"math/bits"

	"hopp/internal/memsim"
)

// maxStreams bounds Params.StreamEntries: the head index keeps one bit
// per entry in a uint64 bucket mask.
const maxStreams = 64

// headBuckets is the head index's bucket count. With at most 64 live
// heads, a probe of three buckets meets an unrelated entry rarely; one
// that does costs a PID compare.
const (
	headBits    = 10
	headBuckets = 1 << headBits
)

// streamIndex is the stream table front end both prediction algorithms
// share: each entry's PID and head (most recent) VPN, an index from
// head buckets to entries, and the entries' recency order. It answers
// "which stream does this page join" by looking only at the streams the
// page can join, and "which entry does a new stream take" without a
// timestamp scan.
//
// Heads are bucketed by (PID, VPN >> shift), where 1<<shift is Δ_stream
// rounded up to a power of two: a head within Δ_stream of a page lies in
// the page's bucket or one of its two neighbours. Buckets hash into a
// fixed array of entry bitmasks, so a probe ORs three masks; hash
// collisions only add candidates, which the distance check then drops.
//
// Pages and heads are at most memsim.MaxVPN, so the distance between
// two of them never wraps.
//
// Entries are never invalidated once claimed, so the valid ones are
// always the prefix [0, n) and the first empty entry is entry n.
type streamIndex struct {
	delta memsim.Stride // Δ_stream
	shift uint          // log2 of the bucket width
	size  int           // StreamEntries
	n     int           // valid entries

	pid  [maxStreams]memsim.PID
	head [maxStreams]memsim.VPN
	slot [maxStreams]uint16 // bucket of each valid entry's head
	// probe is the bucket of the page the last match looked up: the
	// head's bucket for the claim or advance that follows it.
	probe uint16

	buckets [headBuckets]uint64

	// prev/next link the valid entries most recently used first, with
	// index maxStreams as the list's sentinel. Every Observe touches at
	// most one entry, so recency has no ties: the list's tail is the one
	// least recently used entry.
	prev, next [maxStreams + 1]uint8
}

// init sets up ix for p's StreamEntries and DeltaStream. It
// panics on a StreamEntries outside [1, 64], a programming error in
// experiment setup rather than a runtime condition.
func (ix *streamIndex) init(p Params) {
	if p.StreamEntries < 1 || p.StreamEntries > maxStreams {
		panic(fmt.Sprintf("core: StreamEntries %d outside the [1, %d] the stream index holds", p.StreamEntries, maxStreams))
	}
	ix.size = p.StreamEntries
	ix.delta = memsim.Stride(p.DeltaStream)
	width := uint64(1)
	if p.DeltaStream > 1 {
		width = uint64(p.DeltaStream)
	}
	ix.shift = uint(bits.Len64(width - 1))
	ix.prev[maxStreams], ix.next[maxStreams] = maxStreams, maxStreams
}

// bucket hashes (pid, b) to a bucket; b-1 and b+1 may wrap, which only
// makes them other keys.
func bucket(pid memsim.PID, b uint64) uint16 {
	return uint16(((b ^ uint64(pid)<<48) * 0x9E3779B97F4A7C15) >> (64 - headBits))
}

// match finds the stream vpn belongs to: same PID and within Δ_stream
// pages of the stream's head; the nearest stream wins, and the lowest
// index among equally near ones. Returns -1 when no stream matches. The
// page's bucket is kept for the claim or advance that follows.
func (ix *streamIndex) match(pid memsim.PID, vpn memsim.VPN) int {
	b := uint64(vpn) >> ix.shift
	ix.probe = bucket(pid, b)
	cand := ix.buckets[ix.probe] | ix.buckets[bucket(pid, b-1)] | ix.buckets[bucket(pid, b+1)]
	best := -1
	var bestDist memsim.Stride = math.MaxInt64
	for cand != 0 {
		i := bits.TrailingZeros64(cand)
		cand &= cand - 1
		if ix.pid[i] != pid {
			continue
		}
		d := memsim.StrideBetween(ix.head[i], vpn).Abs()
		if d <= ix.delta && d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// claim gives a new stream headed at vpn an entry: the first empty one,
// else the least recently used, whose stream is evicted. It must follow
// a match of the same page.
func (ix *streamIndex) claim(pid memsim.PID, vpn memsim.VPN) (idx int, evicted bool) {
	if ix.n < ix.size {
		idx = ix.n
		ix.n++
	} else {
		idx = int(ix.prev[maxStreams])
		evicted = true
		ix.buckets[ix.slot[idx]] &^= 1 << idx
		ix.unlink(idx)
	}
	ix.pid[idx] = pid
	ix.head[idx] = vpn
	ix.slot[idx] = ix.probe
	ix.buckets[ix.probe] |= 1 << idx
	ix.pushFront(idx)
	return idx, evicted
}

// advance moves entry idx's head to vpn, the page the last match
// looked up.
func (ix *streamIndex) advance(idx int, vpn memsim.VPN) {
	ix.head[idx] = vpn
	if s := ix.probe; s != ix.slot[idx] {
		ix.buckets[ix.slot[idx]] &^= 1 << idx
		ix.buckets[s] |= 1 << idx
		ix.slot[idx] = s
	}
}

// touch makes valid entry idx the most recently used.
func (ix *streamIndex) touch(idx int) {
	if int(ix.next[maxStreams]) == idx {
		return
	}
	ix.unlink(idx)
	ix.pushFront(idx)
}

func (ix *streamIndex) unlink(idx int) {
	p, n := ix.prev[idx], ix.next[idx]
	ix.next[p] = n
	ix.prev[n] = p
}

func (ix *streamIndex) pushFront(idx int) {
	first := ix.next[maxStreams]
	ix.prev[idx], ix.next[idx] = maxStreams, first
	ix.prev[first] = uint8(idx)
	ix.next[maxStreams] = uint8(idx)
}

// valid reports whether idx names a claimed entry.
func (ix *streamIndex) valid(idx int) bool { return idx >= 0 && idx < ix.n }

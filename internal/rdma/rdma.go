// Package rdma models the remote half of the testbed: a memory node
// reachable over a 56 Gbps InfiniBand-class fabric. The fabric is a
// queueing model — transfers serialize on the link at its bandwidth, on
// top of a base latency with configurable jitter — so prefetch
// timeliness and network congestion (§III-E's motivation for the policy
// engine) emerge naturally.
//
// The paper reports ~4 µs to move a 4 KB page (§II-A step 4); the
// default parameters reproduce that.
package rdma

import (
	"fmt"

	"hopp/internal/flatmap"
	"math/rand"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
)

// Config parameterizes the fabric.
type Config struct {
	// BaseLatency is the fixed per-transfer cost (NIC doorbell, switch
	// hops, DMA setup). Default 3.4 µs, which with a 4 KB payload at
	// 56 Gbps yields the paper's ≈4 µs page read.
	BaseLatency vclock.Duration
	// BytesPerNS is link bandwidth. 56 Gbps = 7 bytes/ns. Default 7.
	BytesPerNS float64
	// JitterFrac scales uniform latency noise: each transfer's base
	// latency is multiplied by 1 + U(0, JitterFrac). Models the "remote
	// swap latency is volatile" observation (§I ⑤). Default 0.
	JitterFrac float64
	// Seed feeds the jitter generator.
	Seed int64
}

func (c *Config) fill() {
	if c.BaseLatency == 0 {
		c.BaseLatency = 3400 * vclock.Nanosecond
	}
	if c.BytesPerNS == 0 {
		c.BytesPerNS = 7
	}
}

// Stats is the fabric's ledger.
type Stats struct {
	Transfers     uint64
	Bytes         uint64
	QueueDelaySum vclock.Duration
}

// Fabric is a single shared link to the memory node.
type Fabric struct {
	cfg    Config
	rng    *rand.Rand
	freeAt vclock.Time
	stats  Stats
}

// NewFabric builds a fabric.
func NewFabric(cfg Config) *Fabric {
	cfg.fill()
	return &Fabric{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Transfer schedules moving size bytes starting no earlier than now and
// returns the completion time. Concurrent transfers queue behind each
// other on the link.
func (f *Fabric) Transfer(now vclock.Time, size int) vclock.Time {
	start := now
	if f.freeAt.After(start) {
		start = f.freeAt
	}
	queueDelay := start.Sub(now)
	wire := vclock.Duration(float64(size) / f.cfg.BytesPerNS)
	f.freeAt = start.Add(wire)
	lat := f.cfg.BaseLatency
	if f.cfg.JitterFrac > 0 {
		lat += vclock.Duration(float64(lat) * f.cfg.JitterFrac * f.rng.Float64())
	}
	f.stats.Transfers++
	f.stats.Bytes += uint64(size)
	f.stats.QueueDelaySum += queueDelay
	return start.Add(wire + lat)
}

// PageRead schedules a 4 KB page read and returns its completion time.
func (f *Fabric) PageRead(now vclock.Time) vclock.Time {
	return f.Transfer(now, memsim.PageSize)
}

// PageWrite schedules a 4 KB page writeback and returns its completion
// time.
func (f *Fabric) PageWrite(now vclock.Time) vclock.Time {
	return f.Transfer(now, memsim.PageSize)
}

// Stats returns a copy of the ledger.
func (f *Fabric) Stats() Stats { return f.stats }

// Node is the remote memory node's page store. Pages arrive via reclaim
// writebacks; reads do not remove pages, matching swap semantics where
// the remote copy stays valid until overwritten.
type Node struct {
	pages *flatmap.Map[struct{}]
	cap   int
}

// NewNode builds a node holding at most capPages pages; capPages <= 0
// means unbounded.
func NewNode(capPages int) *Node {
	return &Node{pages: flatmap.New[struct{}](256), cap: capPages}
}

// Write stores a page, as a reclaim writeback does. It fails when the
// node is full.
func (n *Node) Write(k memsim.PageKey) error {
	pk := k.Pack()
	if !n.pages.Has(pk) && n.cap > 0 && n.pages.Len() >= n.cap {
		return fmt.Errorf("rdma: memory node full (%d pages)", n.cap)
	}
	n.pages.Put(pk, struct{}{})
	return nil
}

// Has reports whether the node holds the page, as a swap-in's read
// checks it.
func (n *Node) Has(k memsim.PageKey) bool {
	return n.pages.Has(k.Pack())
}

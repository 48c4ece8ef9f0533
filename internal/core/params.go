// Package core implements HoPP's software side — the paper's primary
// contribution (§III-D/E/F): the prefetch training framework built
// around the Stream Training Table, the Adaptive Three-Tier Prefetching
// algorithms (SSP, LSP, RSP), the policy engine with its intensity and
// offset knobs, and the execution engine that deduplicates requests,
// reads pages over RDMA and injects PTEs as soon as they arrive.
package core

import (
	"fmt"

	"hopp/internal/vclock"
)

// Prediction algorithm names for Params.Algorithm.
const (
	AlgoThreeTier = "three-tier"
	AlgoMarkov    = "markov"
)

// Tier identifies which prefetch algorithm produced a prediction.
type Tier int

// The three tiers, tried in this order (§III-D1).
const (
	TierNone Tier = iota
	TierSSP       // Simple-Stream-based Prefetch
	TierLSP       // Ladder-Stream-based Prefetch
	TierRSP       // Ripple-Stream-based Prefetch
)

func (t Tier) String() string {
	switch t {
	case TierSSP:
		return "SSP"
	case TierLSP:
		return "LSP"
	case TierRSP:
		return "RSP"
	default:
		return "none"
	}
}

// PolicyParams are the policy engine's knobs (§III-E).
type PolicyParams struct {
	// InitialOffset is the starting prefetch offset i for a new stream.
	InitialOffset float64
	// Alpha is the multiplicative adjustment step; i grows by (1+Alpha)
	// when prefetches arrive barely in time and shrinks by (1-Alpha)
	// when they arrive far too early. Default 0.2.
	Alpha float64
	// MaxOffset caps i. Default 1024 (the paper's i_max = 1K).
	MaxOffset float64
	// TMin: a prefetched page first hit sooner than this after arriving
	// was almost late; prefetch further ahead. Default 40 µs.
	TMin vclock.Duration
	// TMax: a page that sat unused longer than this was fetched too
	// early; pull the offset in. Default 5 ms.
	TMax vclock.Duration
	// Adaptive disables offset feedback when false (fixed-offset
	// ablation in Fig. 22).
	Adaptive bool
	// Intensity is how many pages to prefetch per identified trigger;
	// §III-E prefetches one page per hot page, more when bandwidth
	// allows. Default 1.
	Intensity int
}

// DefaultPolicy returns the paper's defaults (§III-E): α = 0.2,
// i_max = 1K, T_min = 40 µs, T_max = 5 ms.
func DefaultPolicy() PolicyParams {
	return PolicyParams{
		InitialOffset: 1,
		Alpha:         0.2,
		MaxOffset:     1024,
		TMin:          40 * vclock.Microsecond,
		TMax:          5 * vclock.Millisecond,
		Adaptive:      true,
		Intensity:     1,
	}
}

// Params configures the whole HoPP software stack.
type Params struct {
	// StreamEntries is the Stream Training Table size. Default 64 (§III-D1).
	StreamEntries int
	// HistoryLen is L, the VPN history window per stream. Default 16,
	// from 2 to 64.
	HistoryLen int
	// DeltaStream is Δ_stream, the page-clustering distance: a hot page
	// joins a stream when its VPN is within this many pages of the
	// stream's last VPN. Default 64 (§III-D1).
	DeltaStream int64
	// MaxRippleStride is RSP's max_stride tolerance for out-of-order
	// accesses. Default 2 (§III-D4).
	MaxRippleStride int64
	// EnableSSP/EnableLSP/EnableRSP toggle tiers (the Fig. 18–20
	// ablation). All true by default.
	EnableSSP bool
	EnableLSP bool
	EnableRSP bool
	// Policy is the policy engine configuration.
	Policy PolicyParams
	// Bulk configures §IV's huge-page-space prefetching: when a stride-1
	// stream has proven long enough, swap a whole 2 MB worth of future
	// pages with one request.
	Bulk BulkParams
	// Algorithm selects the prediction algorithm: AlgoThreeTier (the
	// paper's design, default) or AlgoMarkov (a delta-correlation
	// alternative demonstrating §III-D's pluggable design space).
	Algorithm string
	// DropShared ignores hot pages whose RPT entry carries the shared
	// flag (§III-C forwards it "for better predictions"): shared pages
	// are touched by several processes, so their per-PID access order is
	// noise to stream detection.
	DropShared bool
}

// BulkParams configures §IV's large-space prefetching.
type BulkParams struct {
	// Enable turns bulk prefetching on. Off by default.
	Enable bool
	// StreamLength is how many consecutive stride-1 predictions a stream
	// must produce before it is considered "long enough" (§IV). Default 64.
	StreamLength int
	// Pages is the bulk request size. Default 512 (one 2 MB huge page).
	Pages int
	// MinRemoteFrac is the fraction of the bulk window that must
	// actually be swapped out for the request to go ahead; otherwise the
	// stream falls back to per-page prefetching. Default 0.9.
	MinRemoteFrac float64
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{
		StreamEntries:   64,
		HistoryLen:      16,
		DeltaStream:     64,
		MaxRippleStride: 2,
		EnableSSP:       true,
		EnableLSP:       true,
		EnableRSP:       true,
		Policy:          DefaultPolicy(),
	}
}

// minHistoryLen is the shortest history the tiers handle: a stream
// needs one stride behind the arriving page before the window can
// slide.
const minHistoryLen = 2

// Validate reports whether the prediction algorithms can be built from
// p once its zero fields take their defaults: HistoryLen in [2, 64]
// (the tiers' counting window) and StreamEntries in [1, 64] (the
// stream index's bitmask). The constructors panic on the same error,
// so a caller that takes params from its own input validates them
// first.
func (p Params) Validate() error {
	p.fill()
	if p.HistoryLen < minHistoryLen || p.HistoryLen > countWindow {
		return fmt.Errorf("core: HistoryLen %d outside the [%d, %d] the tiers count over", p.HistoryLen, minHistoryLen, countWindow)
	}
	if p.StreamEntries < 1 || p.StreamEntries > maxStreams {
		return fmt.Errorf("core: StreamEntries %d outside the [1, %d] the stream index holds", p.StreamEntries, maxStreams)
	}
	return nil
}

func (p *Params) fill() {
	if p.StreamEntries == 0 {
		p.StreamEntries = 64
	}
	if p.HistoryLen == 0 {
		p.HistoryLen = 16
	}
	if p.DeltaStream == 0 {
		p.DeltaStream = 64
	}
	if p.MaxRippleStride == 0 {
		p.MaxRippleStride = 2
	}
	if p.Policy.InitialOffset == 0 {
		p.Policy.InitialOffset = 1
	}
	if p.Policy.Alpha == 0 {
		p.Policy.Alpha = 0.2
	}
	if p.Policy.MaxOffset == 0 {
		p.Policy.MaxOffset = 1024
	}
	if p.Policy.TMin == 0 {
		p.Policy.TMin = 40 * vclock.Microsecond
	}
	if p.Policy.TMax == 0 {
		p.Policy.TMax = 5 * vclock.Millisecond
	}
	if p.Policy.Intensity == 0 {
		p.Policy.Intensity = 1
	}
	if p.Bulk.StreamLength == 0 {
		p.Bulk.StreamLength = 64
	}
	if p.Bulk.Pages == 0 {
		p.Bulk.Pages = 512
	}
	if p.Bulk.MinRemoteFrac == 0 {
		p.Bulk.MinRemoteFrac = 0.9
	}
}

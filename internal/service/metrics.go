package service

import "sync/atomic"

// kindCounters are one job kind's monotonic lifecycle counters. Every
// kind moves the same set, so a dashboard reads them all with one query
// shape; the terminal ones (completed through panicked) are ticked only
// by Engine.finishLocked.
type kindCounters struct {
	submitted atomic.Uint64
	started   atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	rejected  atomic.Uint64 // fail-fast admission rejections (429s)
	timedOut  atomic.Uint64 // subset of failed that hit -run-timeout
	panicked  atomic.Uint64 // subset of failed whose work function panicked
}

// counters are the engine's expvar-style runtime counters: a
// kindCounters block per job kind plus the kind-agnostic shared ones
// (cache, journal, wall/simulated time). The byKind map is built once
// at construction and never mutated afterwards, so lock-free concurrent
// reads are safe.
type counters struct {
	byKind map[JobKind]*kindCounters

	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64
	runWallNS      atomic.Int64 // total wall time spent executing jobs (both kinds)
	runSimulatedNS atomic.Int64 // total simulated time produced by sim jobs

	// Sweep fan-out accounting. Points are sweep children: total counts
	// every expanded grid point admitted, cached the points served
	// without their own simulation (result-cache hits at admission plus
	// in-flight dedupe followers), completed the points that reached
	// done (cached ones included), failed the points that did not.
	// Streams counts distinct workload access streams actually generated
	// for sweeps — the shared-workload memoization gauge: a sweep of N
	// points over W distinct (workload, seed) pairs builds exactly W.
	sweepPointsTotal     atomic.Uint64
	sweepPointsCached    atomic.Uint64
	sweepPointsCompleted atomic.Uint64
	sweepPointsFailed    atomic.Uint64
	sweepStreamsBuilt    atomic.Uint64

	// Ingest accounting. Records/loss accumulate at session finish (the
	// live gauges ride on each session's status); retries count duplicate
	// chunk uploads re-acked without reprocessing; expirations count
	// sessions the idle deadline reaped.
	ingestRecords         atomic.Uint64
	ingestLossRecords     atomic.Uint64
	ingestChunksRetried   atomic.Uint64
	ingestSessionsExpired atomic.Uint64
}

func newCounters() *counters {
	c := &counters{byKind: make(map[JobKind]*kindCounters, len(jobKinds))}
	for _, k := range jobKinds {
		c.byKind[k] = &kindCounters{}
	}
	return c
}

// kind returns the counter block for one job kind.
func (c *counters) kind(k JobKind) *kindCounters { return c.byKind[k] }

// completedTotal sums completions across kinds — the denominator of the
// adaptive Retry-After estimate (both kinds drain the same queue).
func (c *counters) completedTotal() uint64 {
	var n uint64
	for _, k := range jobKinds {
		n += c.byKind[k].completed.Load()
	}
	return n
}

// JobCounters is the externally visible snapshot of one kind's
// lifecycle counters. Rejected counts submissions shed by admission
// control (HTTP 429); they never entered the registry. TimedOut is the
// subset of Failed that exceeded the per-run deadline; Panicked the
// subset whose work function panicked (contained on the worker — the
// daemon and its other jobs kept running).
type JobCounters struct {
	Submitted uint64 `json:"submitted"`
	Started   uint64 `json:"started"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Rejected  uint64 `json:"rejected"`
	TimedOut  uint64 `json:"timed_out"`
	Panicked  uint64 `json:"panicked"`
}

// MetricsSnapshot is the /metrics payload: a point-in-time copy of
// every counter plus the live gauges. Jobs is keyed by kind ("sim",
// "experiment") and both kinds carry the identical counter shape;
// encoding/json sorts the map keys, so the serialized form is stable.
type MetricsSnapshot struct {
	Jobs map[JobKind]JobCounters `json:"jobs"`

	// Admission is the per-client fairness layer's snapshot, present
	// only when the daemon runs with a ClientLimiter (-client-rate). It
	// is filled by the HTTP layer, which owns the limiter — the engine
	// never sees shed submissions.
	Admission *AdmissionSnapshot `json:"admission,omitempty"`

	// RegistrySize is the live job-registry gauge covering both kinds;
	// RegistryEvictions counts terminal jobs dropped by the retention
	// policy (their IDs answer 404 afterwards). RetainRuns echoes the
	// configured bound.
	RegistrySize      int    `json:"registry_size"`
	RegistryEvictions uint64 `json:"registry_evictions"`
	RetainRuns        int    `json:"retain_runs"`

	// JournalWrites counts terminal jobs appended to the -journal file;
	// JournalWriteErrors counts appends that failed (the job and any
	// eviction proceed regardless — the registry bound is load-bearing,
	// the audit trail is best-effort). JournalLastWriteFailed mirrors
	// the /healthz degraded signal: true from a failed append until the
	// next successful one. JournalReplayed counts entries
	// `-journal-replay` recovered into the registry/cache at startup.
	JournalWrites          uint64 `json:"journal_writes"`
	JournalWriteErrors     uint64 `json:"journal_write_errors"`
	JournalLastWriteFailed bool   `json:"journal_last_write_failed"`
	JournalReplayed        int    `json:"journal_replayed"`

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	CacheSize   int    `json:"cache_size"`

	QueueDepth int `json:"queue_depth"`
	// QueueLimit is the admission bound (0 = unbounded); RunTimeoutNS is
	// the per-run deadline (0 = none). Both echo configuration so a
	// scraper can alert on depth/limit ratio without knowing the flags.
	QueueLimit   int   `json:"queue_limit"`
	RunTimeoutNS int64 `json:"run_timeout_ns"`
	// RetryAfterHintNS is the adaptive backoff hint 429 responses carry
	// in Retry-After (mean job wall time × queued jobs per worker,
	// clamped to [1s, 60s]) — exported so operators can see what
	// rejected clients are being told.
	RetryAfterHintNS int64 `json:"retry_after_hint_ns"`
	ActiveJobs       int   `json:"active_jobs"`
	Workers          int   `json:"workers"`

	// Sweep fan-out gauges: per-point lifecycle counts (cached = served
	// without a simulation of their own — result-cache hits plus
	// in-flight dedupe), the distinct workload access streams generated
	// for sweeps (the memoization win: points ≫ streams), and the
	// configured grid-size bound (-max-sweep-points).
	SweepPointsTotal     uint64 `json:"sweep_points_total"`
	SweepPointsCached    uint64 `json:"sweep_points_cached"`
	SweepPointsCompleted uint64 `json:"sweep_points_completed"`
	SweepPointsFailed    uint64 `json:"sweep_points_failed"`
	SweepStreamsBuilt    uint64 `json:"sweep_streams_built"`
	MaxSweepPoints       int    `json:"max_sweep_points"`

	// Ingest gauges: live sessions against the -max-ingests bound, total
	// records decoded (and the subset lost to HMTT capture gaps) by
	// finished sessions, duplicate chunks re-acked to retrying clients,
	// and sessions reaped by -ingest-idle-timeout.
	IngestSessionsActive  int    `json:"ingest_sessions_active"`
	MaxIngests            int    `json:"max_ingests"`
	IngestRecords         uint64 `json:"ingest_records"`
	IngestLossRecords     uint64 `json:"ingest_loss_records"`
	IngestChunksRetried   uint64 `json:"ingest_chunks_retried"`
	IngestSessionsExpired uint64 `json:"ingest_sessions_expired"`

	// CatalogWorkloads/CatalogSystems size the request space servable by
	// this build — useful when fleet rollouts mix catalog versions.
	CatalogWorkloads int `json:"catalog_workloads"`
	CatalogSystems   int `json:"catalog_systems"`

	// RunWallNS is total wall-clock nanoseconds workers spent executing
	// jobs of both kinds; RunSimulatedNS is the total simulated
	// nanoseconds sim jobs covered. Their ratio is the engine's
	// time-dilation factor.
	RunWallNS      int64 `json:"run_wall_ns"`
	RunSimulatedNS int64 `json:"run_simulated_ns"`
}

func (c *counters) snapshot() MetricsSnapshot {
	jobs := make(map[JobKind]JobCounters, len(jobKinds))
	for _, k := range jobKinds {
		kc := c.byKind[k]
		jobs[k] = JobCounters{
			Submitted: kc.submitted.Load(),
			Started:   kc.started.Load(),
			Completed: kc.completed.Load(),
			Failed:    kc.failed.Load(),
			Cancelled: kc.cancelled.Load(),
			Rejected:  kc.rejected.Load(),
			TimedOut:  kc.timedOut.Load(),
			Panicked:  kc.panicked.Load(),
		}
	}
	return MetricsSnapshot{
		Jobs:                  jobs,
		CacheHits:             c.cacheHits.Load(),
		CacheMisses:           c.cacheMisses.Load(),
		RunWallNS:             c.runWallNS.Load(),
		RunSimulatedNS:        c.runSimulatedNS.Load(),
		SweepPointsTotal:      c.sweepPointsTotal.Load(),
		SweepPointsCached:     c.sweepPointsCached.Load(),
		SweepPointsCompleted:  c.sweepPointsCompleted.Load(),
		SweepPointsFailed:     c.sweepPointsFailed.Load(),
		SweepStreamsBuilt:     c.sweepStreamsBuilt.Load(),
		IngestRecords:         c.ingestRecords.Load(),
		IngestLossRecords:     c.ingestLossRecords.Load(),
		IngestChunksRetried:   c.ingestChunksRetried.Load(),
		IngestSessionsExpired: c.ingestSessionsExpired.Load(),
	}
}

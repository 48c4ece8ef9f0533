package service

// counters are the engine's monotonic counters, each declared once:
// the kind-agnostic totals live in their /metrics fields, the per-kind
// lifecycle blocks in jobs (built once, never re-keyed). All of them
// are guarded by reg.mu, under which every increment happens; the one
// counter workers tick outside it is Engine.streamsBuilt. The gauge
// fields of the embedded snapshot stay zero here — Metrics fills them.
type counters struct {
	MetricsSnapshot
	jobs map[JobKind]*JobCounters
}

func newCounters() counters {
	c := counters{jobs: make(map[JobKind]*JobCounters, len(jobKinds))}
	for _, k := range jobKinds {
		c.jobs[k] = &JobCounters{}
	}
	return c
}

// completedTotal sums completions across kinds — the denominator of the
// adaptive Retry-After estimate (every kind drains the same queue).
func (c *counters) completedTotal() uint64 {
	var n uint64
	for _, k := range jobKinds {
		n += c.jobs[k].Completed
	}
	return n
}

// snapshot copies the counters into a /metrics payload whose gauges the
// caller fills.
func (c *counters) snapshot() MetricsSnapshot {
	s := c.MetricsSnapshot
	s.Jobs = make(map[JobKind]JobCounters, len(jobKinds))
	for _, k := range jobKinds {
		s.Jobs[k] = *c.jobs[k]
	}
	return s
}

// JobCounters is one kind's lifecycle counters, kept in this form and
// copied out as its /metrics snapshot. The terminal ones (Completed
// through Panicked) are ticked only by Engine.finishLocked. Rejected counts submissions shed by admission
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
	// `-journal-replay` recovered into the registry at startup.
	JournalWrites          uint64 `json:"journal_writes"`
	JournalWriteErrors     uint64 `json:"journal_write_errors"`
	JournalLastWriteFailed bool   `json:"journal_last_write_failed"`
	JournalReplayed        int    `json:"journal_replayed"`

	// CacheHits counts keyed submissions served from a retained done
	// job's result, CacheMisses those that had to run; followers of a
	// live job count as neither. CacheSize counts the keys whose done
	// job is still retained — result hits end with retention.
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
	// without a simulation of their own — result hits plus live-job
	// dedupe), the distinct workload access streams generated
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

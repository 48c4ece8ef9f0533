package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"hopp/internal/faults"
	"hopp/internal/hmtt"
	"hopp/internal/tracepipe"
)

// Ingest errors. ErrIngestInterrupted wraps ErrDrainIncomplete: a
// session failed by an engine drain is the streaming analogue of a
// forced shutdown, and callers that already branch on
// ErrDrainIncomplete semantics see it through errors.Is.
var (
	ErrIngestInterrupted = fmt.Errorf("service: ingest interrupted by shutdown: %w", ErrDrainIncomplete)
	// ErrNotIngest rejects ingest-surface operations on IDs that name
	// jobs of other kinds (HTTP 404, like ErrNotSweep).
	ErrNotIngest = errors.New("service: not an ingest session")
	// ErrIngestLimit sheds an open when -max-ingests sessions are
	// already live (HTTP 429 + Retry-After).
	ErrIngestLimit = errors.New("service: too many active ingest sessions")
	// ErrIngestPaused rejects a chunk because the staging ring cannot
	// hold it: the pump is behind the producer. The session flips to the
	// paused phase and the client backs off (HTTP 429 + Retry-After) —
	// bounded memory instead of unbounded buffering.
	ErrIngestPaused = errors.New("service: ingest staging ring full, retry later")
	// ErrChunkOutOfOrder rejects a chunk whose index is ahead of the
	// session's acked high-water mark (HTTP 409): chunks are accepted
	// strictly in order so the byte stream — and the 6-byte records torn
	// across its chunk boundaries — reassembles exactly.
	ErrChunkOutOfOrder = errors.New("service: chunk index ahead of acked high-water mark")
	// ErrChunkTooLarge rejects a chunk bigger than the per-chunk bound
	// or the whole staging ring (HTTP 413).
	ErrChunkTooLarge = errors.New("service: chunk exceeds size limit")
	// ErrChunkRead marks a chunk body that tore mid-read. Nothing of the
	// chunk is staged: the session stays exactly where it was, resumable
	// at the same index (HTTP 400 — the client retries the chunk).
	ErrChunkRead = errors.New("service: chunk body read failed")
	// ErrIngestClosed rejects chunks for a session already draining or
	// terminal (HTTP 409).
	ErrIngestClosed = errors.New("service: ingest session closed")
	// ErrIngestExpired is the failure cause of a session whose client
	// went silent past -ingest-idle-timeout. Abandoned uploads expire;
	// they never pin a session slot.
	ErrIngestExpired = errors.New("service: ingest session expired: idle timeout")
)

// Ingest configuration defaults.
const (
	// DefaultMaxIngests bounds concurrently live ingest sessions.
	DefaultMaxIngests = 8
	// DefaultIngestIdleTimeout expires a session with no client activity.
	DefaultIngestIdleTimeout = 2 * time.Minute
	// DefaultIngestRingRecords sizes the staging ring between the HTTP
	// layer and the pump, in trace records.
	DefaultIngestRingRecords = 65536
	// DefaultIngestWindowRecords is the metrics window length when the
	// open request leaves WindowRecords unset.
	DefaultIngestWindowRecords = 4096
	// ingestMaxChunkBytes bounds one uploaded chunk (HTTP 413 beyond).
	ingestMaxChunkBytes = 4 << 20
)

// IngestPhase is an ingest session's position in its own lifecycle,
// finer-grained than JobState: a running job is streaming, paused
// (staging ring full, producer backing off), or draining (close
// requested, pump finishing the backlog).
type IngestPhase string

// The ingest phases: open → streaming ⇄ paused → draining →
// done/expired/failed/cancelled.
const (
	IngestStreaming IngestPhase = "streaming"
	IngestPaused    IngestPhase = "paused"
	IngestDraining  IngestPhase = "draining"
	IngestDone      IngestPhase = "done"
	IngestExpired   IngestPhase = "expired"
	IngestFailed    IngestPhase = "failed"
	IngestCancelled IngestPhase = "cancelled"
)

// Terminal reports whether the phase is final.
func (p IngestPhase) Terminal() bool {
	return p == IngestDone || p == IngestExpired || p == IngestFailed || p == IngestCancelled
}

// IngestRequest opens one ingest session — the payload of POST
// /v1/ingests. The client then streams HMTT-encoded chunks at the
// session and reads windowed metrics as records flow through the live
// HPD→prefetcher pipeline.
type IngestRequest struct {
	// Workload is a free-form label for the trace source (there is no
	// catalog to validate a real application against). Empty means
	// "trace".
	Workload string `json:"workload,omitempty"`
	// System names the system under test, validated against the same
	// catalog as sim runs: a HoPP variant drives the prediction
	// algorithm from the HPD hot-page stream; a prefetch-registry spec
	// drives its demand-path prefetcher from the read stream. Empty
	// means "hopp".
	System string `json:"system,omitempty"`
	// Frac is local memory as a fraction of the footprint in [0, 1); it
	// sizes the prefetch working set the pipeline tracks. Nil defaults
	// to 0.5.
	Frac *float64 `json:"frac,omitempty"`
	// Seed labels the trace's generation seed (informational; the
	// pipeline itself is deterministic in the record stream).
	Seed int64 `json:"seed,omitempty"`
	// WindowRecords is the metrics window length in records; 0 means
	// DefaultIngestWindowRecords, out-of-range values clamp to
	// [16, 1<<20].
	WindowRecords int `json:"window_records,omitempty"`
}

// Normalize validates the request against the system catalog and
// resolves defaults. Ingest jobs have no key: a live stream is not a
// replayable computation, so no other submission can share its result.
func (r IngestRequest) Normalize() (IngestRequest, error) {
	n := r
	n.Workload = strings.TrimSpace(n.Workload)
	if n.Workload == "" {
		n.Workload = "trace"
	}
	n.System = strings.ToLower(strings.TrimSpace(n.System))
	if n.System == "" {
		n.System = "hopp"
	}
	canon, ok := canonicalSystem(n.System)
	if !ok {
		return n, fmt.Errorf("%w %q", ErrUnknownSystem, r.System)
	}
	n.System = canon
	var err error
	if n.Frac, err = normalizeFrac(n.Frac); err != nil {
		return n, err
	}
	switch {
	case n.WindowRecords <= 0:
		n.WindowRecords = DefaultIngestWindowRecords
	case n.WindowRecords < 16:
		n.WindowRecords = 16
	case n.WindowRecords > 1<<20:
		n.WindowRecords = 1 << 20
	}
	return n, nil
}

// IngestWindow is one finished metrics window: what the trace did to
// the pipeline over WindowRecords consecutive records. Loss is the
// HMTT capture-buffer signal — sequence gaps in the uploaded stream —
// surfaced per window so a consumer sees when the producer's capture
// ring overflowed. Serialized windows are deterministic in the record
// stream, which is what makes restart replay byte-identical.
type IngestWindow struct {
	Index        int    `json:"index"`
	Records      uint64 `json:"records"`
	Reads        uint64 `json:"reads"`
	Writes       uint64 `json:"writes"`
	LossRecords  uint64 `json:"loss_records"`
	HotPages     uint64 `json:"hot_pages"`
	Prefetches   uint64 `json:"prefetches"`
	PrefetchHits uint64 `json:"prefetch_hits"`
	// StartNS/EndNS are the window's bounds on the trace's own virtual
	// clock (TimestampDelta ticks × hmtt.TickNS).
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// IngestStatus is the ingest-specific block of a session's RunStatus.
type IngestStatus struct {
	Phase IngestPhase `json:"phase"`
	// WindowRecords echoes the normalized window length.
	WindowRecords int `json:"window_records"`
	// ChunksAcked is the next chunk index the session will accept:
	// everything below it has been staged and acknowledged. Acks are
	// advisory until the chunk clears the pump; ChunksDurable is the
	// journaled high-water mark a restarted daemon resumes from — after
	// a crash the client rewinds to it and re-PUTs (idempotent by
	// index).
	ChunksAcked   int    `json:"chunks_acked"`
	ChunksDurable int    `json:"chunks_durable"`
	ChunksRetried uint64 `json:"chunks_retried,omitempty"`
	// Cumulative pipeline totals across all finished and in-progress
	// windows.
	Records      uint64 `json:"records"`
	LossRecords  uint64 `json:"loss_records"`
	Reads        uint64 `json:"reads"`
	Writes       uint64 `json:"writes"`
	HotPages     uint64 `json:"hot_pages"`
	Prefetches   uint64 `json:"prefetches"`
	PrefetchHits uint64 `json:"prefetch_hits"`
	// Windows counts finished metrics windows (the NDJSON stream's
	// current length).
	Windows int `json:"windows"`
	// RingBytes/RingCapacity gauge the staging ring; a producer pausing
	// on 429 can watch occupancy fall.
	RingBytes    int `json:"ring_bytes"`
	RingCapacity int `json:"ring_capacity"`
	// PartialTail is how many bytes of a record torn across the last
	// chunk boundary are buffered, waiting for the rest of the stream.
	PartialTail int `json:"partial_tail_bytes,omitempty"`
	// Resumed marks a session restored from the journal after a daemon
	// restart.
	Resumed bool `json:"resumed,omitempty"`
}

// IngestJournal is the resumable snapshot an ingest journal entry
// carries: cumulative totals, the exact streaming-decoder state
// (partial record bytes and sequence accounting), the windows finished
// since the previous entry, and the in-progress window. Replay merges
// a session's entries by ID; the cumulative fields make the merge
// idempotent under duplicated or re-read lines.
type IngestJournal struct {
	Phase         IngestPhase `json:"phase"`
	WindowRecords int         `json:"window_records,omitempty"`
	ChunksAcked   int         `json:"chunks_acked"`
	ChunksRetried uint64      `json:"chunks_retried,omitempty"`
	// Counts are the pipeline's cumulative totals and trace clock.
	tracepipe.Counts
	// Decoder is the streaming decoder's snapshot: record framing and
	// sequence-gap accounting survive a restart byte-exactly.
	Decoder *hmtt.DecoderState `json:"decoder,omitempty"`
	// Windows are the windows finished since the previous entry;
	// WindowsBefore is the index of the first of them (the merge guard).
	WindowsBefore int            `json:"windows_before,omitempty"`
	Windows       []IngestWindow `json:"windows,omitempty"`
	// Partial is the in-progress window at append time.
	Partial *IngestWindow `json:"partial,omitempty"`
	Resumed bool          `json:"resumed,omitempty"`
}

// ingestChunk is one staged upload: the raw bytes of chunk n, waiting
// in the ring for the pump.
type ingestChunk struct {
	n    int
	data []byte
}

// ingestSession is the live state of one KindIngest job. reg.mu
// guards every field but pipe, which only the session's pump goroutine
// touches once it runs (open and replay set it up before). The pump
// feeds a chunk with no lock held and then publishes, in one reg.mu
// section, what status, journal snapshots and replay read: the
// pipeline's counts and decoder state and the windows the chunk
// sealed. req is fixed at open.
type ingestSession struct {
	req IngestRequest // normalized

	phase IngestPhase

	// Staging ring: whole uploaded chunks queued for the pump, bounded
	// by capBytes. A chunk that does not fit is rejected (the paused
	// backpressure path) instead of growing the queue.
	staged      []ingestChunk
	stagedBytes int
	capBytes    int

	accepted  int // next chunk index a PUT may carry (acked HWM)
	processed int // chunks pumped and journaled (durable HWM)
	retried   uint64

	// pipe is the trace pipeline the pump feeds. counts and decoder are
	// its state as of the last published chunk; winStart holds the
	// counts where the in-progress window began.
	pipe       *tracepipe.Pipeline
	counts     tracepipe.Counts
	decoder    hmtt.DecoderState
	winStart   tracepipe.Counts
	windows    []IngestWindow
	journaledW int // windows already written to journal entries

	// feeding is set while the pump feeds a chunk with the lock
	// released. published is closed, and while the session is live
	// recreated, each time the pump publishes a chunk; finishing the
	// session closes it for good. PUTs pacing behind a feed and
	// metrics-stream followers wait on it.
	feeding   bool
	published chan struct{}
	// wake nudges the pump (buffered; producers send non-blocking).
	wake chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
	idle   *time.Timer
	idleD  time.Duration

	closing   bool // client requested close: drain then done
	shut      bool // engine drain: finish the backlog, then fail interrupted
	cancelled bool
	expired   bool
	resumed   bool
}

// newIngestSession builds the session skeleton: request, ring bound,
// pipeline, channels. The caller wires ctx/idle and starts the pump.
// The request must be normalized.
func newIngestSession(req IngestRequest, ringBytes int) (*ingestSession, error) {
	sys, ok := NewSystem(req.System)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownSystem, req.System)
	}
	pipe, err := tracepipe.New(tracepipe.Config{System: sys, LocalFrac: *req.Frac})
	if err != nil {
		return nil, err
	}
	s := &ingestSession{
		req:       req,
		phase:     IngestStreaming,
		capBytes:  ringBytes,
		pipe:      pipe,
		published: make(chan struct{}),
		wake:      make(chan struct{}, 1),
	}
	s.publish()
	return s, nil
}

// publish copies the pipeline's state into the fields the rest of the
// engine reads. The caller is the pump holding reg.mu, or the session's
// builder before the pump starts.
func (s *ingestSession) publish() {
	s.counts = s.pipe.Counts()
	s.decoder = s.pipe.DecoderState()
}

// wakeLocked nudges the pump without blocking; reg.mu must be held.
func (s *ingestSession) wakeLocked() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// touchLocked restarts the inactivity deadline; reg.mu must be held.
func (s *ingestSession) touchLocked() {
	if s.idle != nil {
		s.idle.Reset(s.idleD)
	}
}

// stopIngest flags a live session cancelled (or expired) and cancels
// its context, which releases a pump parked idle or on the stall gate;
// the pump, the single finisher, ends the session. Engine drain does
// not come here: Shutdown sets shut, and the pump finishes the staged
// backlog first.
func (e *Engine) stopIngest(s *ingestSession, expired bool) {
	e.reg.mu.Lock()
	if expired {
		s.expired = true
	} else {
		s.cancelled = true
	}
	e.reg.mu.Unlock()
	s.cancel()
}

// job wraps the session in a running KindIngest job submitted at at.
func (s *ingestSession) job(at time.Time) *Job {
	return &Job{Kind: KindIngest, State: StateRunning, ingest: s, submitted: at, started: at, done: make(chan struct{})}
}

// feed runs one chunk through the pipeline with no lock held; only the
// pump calls it. from and next are the in-progress window's start
// counts and index; feed returns the windows the chunk sealed and where
// the window in progress after it starts.
func (s *ingestSession) feed(data []byte, from tracepipe.Counts, next int) (sealed []IngestWindow, start tracepipe.Counts) {
	start = from
	s.pipe.Feed(data, func(records uint64) {
		if records-start.Records >= uint64(s.req.WindowRecords) {
			now := s.pipe.Counts()
			sealed = append(sealed, ingestWindow(next+len(sealed), start, now))
			start = now
		}
	})
	return sealed, start
}

// sealPartialLocked seals the in-progress window, if it holds any
// records, as the session's last; reg.mu must be held.
func (s *ingestSession) sealPartialLocked() {
	if s.counts.Records > s.winStart.Records {
		s.windows = append(s.windows, ingestWindow(len(s.windows), s.winStart, s.counts))
		s.winStart = s.counts
	}
}

// ingestWindow is window i: the records between pipeline counts from
// and to.
func ingestWindow(i int, from, to tracepipe.Counts) IngestWindow {
	return IngestWindow{
		Index:        i,
		Records:      to.Records - from.Records,
		Reads:        to.Reads - from.Reads,
		Writes:       to.Writes - from.Writes,
		LossRecords:  to.LossRecords - from.LossRecords,
		HotPages:     to.HotPages - from.HotPages,
		Prefetches:   to.Prefetches - from.Prefetches,
		PrefetchHits: to.PrefetchHits - from.PrefetchHits,
		StartNS:      from.ClockNS(),
		EndNS:        to.ClockNS(),
	}
}

// windowStart inverts ingestWindow: the counts at which in-progress
// window w began, given the counts now. Only StartNS is read from w's
// clock, so it also accepts partial windows whose EndNS is unset.
func windowStart(now tracepipe.Counts, w IngestWindow) tracepipe.Counts {
	return tracepipe.Counts{
		Records:      now.Records - w.Records,
		Reads:        now.Reads - w.Reads,
		Writes:       now.Writes - w.Writes,
		LossRecords:  now.LossRecords - w.LossRecords,
		HotPages:     now.HotPages - w.HotPages,
		Prefetches:   now.Prefetches - w.Prefetches,
		PrefetchHits: now.PrefetchHits - w.PrefetchHits,
		ClockTicks:   uint64(w.StartNS / hmtt.TickNS),
	}
}

// journalSnapshot builds the session's journal payload: cumulative
// totals, decoder state, the windows finished since the last entry
// (which it marks journaled), and the in-progress window; reg.mu must
// be held.
func (s *ingestSession) journalSnapshot() *IngestJournal {
	dec := s.decoder
	ij := &IngestJournal{
		Phase:         s.phase,
		WindowRecords: s.req.WindowRecords,
		ChunksAcked:   s.processed,
		ChunksRetried: s.retried,
		Counts:        s.counts,
		Decoder:       &dec,
		WindowsBefore: s.journaledW,
		Resumed:       s.resumed,
	}
	if s.journaledW < len(s.windows) {
		ij.Windows = append([]IngestWindow(nil), s.windows[s.journaledW:]...)
		s.journaledW = len(s.windows)
	}
	if s.counts.Records > s.winStart.Records {
		partial := ingestWindow(len(s.windows), s.winStart, s.counts)
		ij.Partial = &partial
	}
	return ij
}

// statusSnapshot renders the externally visible ingest block; reg.mu
// must be held.
func (s *ingestSession) statusSnapshot() *IngestStatus {
	c := s.counts
	return &IngestStatus{
		Phase:         s.phase,
		WindowRecords: s.req.WindowRecords,
		ChunksAcked:   s.accepted,
		ChunksDurable: s.processed,
		ChunksRetried: s.retried,
		Records:       c.Records,
		LossRecords:   c.LossRecords,
		Reads:         c.Reads,
		Writes:        c.Writes,
		HotPages:      c.HotPages,
		Prefetches:    c.Prefetches,
		PrefetchHits:  c.PrefetchHits,
		Windows:       len(s.windows),
		RingBytes:     s.stagedBytes,
		RingCapacity:  s.capBytes,
		PartialTail:   len(s.decoder.Partial),
		Resumed:       s.resumed,
	}
}

// OpenIngest admits a new ingest session: a KindIngest job born
// running, its pump goroutine started, its open entry journaled.
func (e *Engine) OpenIngest(req IngestRequest) (RunStatus, error) {
	norm, err := req.Normalize()
	if err != nil {
		return RunStatus{}, err
	}
	s, err := newIngestSession(norm, e.ingestRingBytes)
	if err != nil {
		return RunStatus{}, err
	}
	now := time.Now()
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	if e.closed {
		return RunStatus{}, ErrClosed
	}
	if len(e.liveIngests) >= e.maxIngests {
		return RunStatus{}, fmt.Errorf("%w (%d live, bound %d)", ErrIngestLimit, len(e.liveIngests), e.maxIngests)
	}
	j := s.job(now)
	e.reg.addLocked(j)
	e.liveIngests = append(e.liveIngests, j)
	e.ctr.jobs[KindIngest].Submitted++
	e.ctr.jobs[KindIngest].Started++
	e.startIngestLocked(j, s)
	e.reg.journalLocked(j)
	return e.statusLocked(j), nil
}

// startIngestLocked wires a session's runtime — context, cancel hook,
// idle deadline — and launches its pump; reg.mu must be held.
func (e *Engine) startIngestLocked(j *Job, s *ingestSession) {
	s.ctx, s.cancel = context.WithCancel(e.baseCtx)
	s.idleD = e.ingestIdle
	s.idle = time.AfterFunc(s.idleD, func() { e.stopIngest(s, true) })
	j.cancel = func() { e.stopIngest(s, false) }
	e.ingestWG.Add(1)
	go e.ingestPump(j, s)
}

// IngestStatusByID returns one ingest session's snapshot; IDs naming
// jobs of other kinds answer ErrNotIngest (HTTP 404).
func (e *Engine) IngestStatusByID(id string) (RunStatus, error) { return e.status(id, KindIngest) }

// IngestChunk stages chunk n of a session. Chunks are idempotent by
// index: n below the acked high-water mark re-acks without
// reprocessing (the client's retry after a torn response), n above it
// is rejected out-of-order, and exactly n == acked stages. The whole
// body is read before any session state changes, so a read that tears
// mid-chunk leaves the session byte-exactly where it was. A chunk
// arriving while the pump feeds the one before it waits for that feed
// (or for ctx), so the producer stays paced by the pipeline instead of
// running ahead into the ring.
func (e *Engine) IngestChunk(ctx context.Context, id string, n int, body io.Reader) (RunStatus, error) {
	if n < 0 {
		return RunStatus{}, fmt.Errorf("%w: negative index %d", ErrChunkOutOfOrder, n)
	}
	var r io.Reader = io.LimitReader(body, ingestMaxChunkBytes+1)
	if e.faults != nil {
		r = &siteReader{r: r, inj: e.faults, site: faults.SiteIngestChunkRead}
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return RunStatus{}, fmt.Errorf("%w: %w", ErrChunkRead, err)
	}
	if len(data) > ingestMaxChunkBytes {
		return RunStatus{}, fmt.Errorf("%w: chunk over %d bytes", ErrChunkTooLarge, ingestMaxChunkBytes)
	}
	var st RunStatus
	err = e.await(ctx, func() (<-chan struct{}, error) {
		j, jerr := e.reg.kindLocked(id, KindIngest)
		if jerr != nil {
			return nil, jerr
		}
		feeding, serr := e.stageChunkLocked(j.ingest, id, n, data)
		if feeding == nil {
			st = e.statusLocked(j)
		}
		return feeding, serr
	})
	return st, err
}

// stageChunkLocked applies chunk n of session id to the staging ring;
// reg.mu must be held. While the pump feeds, it stages nothing and
// returns the channel that signals the feed's end.
func (e *Engine) stageChunkLocked(s *ingestSession, id string, n int, data []byte) (<-chan struct{}, error) {
	switch {
	case s.phase.Terminal(), s.closing, s.shut:
		return nil, fmt.Errorf("%w: session %s is %s", ErrIngestClosed, id, s.phase)
	case n < s.accepted:
		// Duplicate: the client retried a chunk whose ack it never saw.
		s.retried++
		e.ctr.IngestChunksRetried++
		s.touchLocked()
		return nil, nil
	case n > s.accepted:
		return nil, fmt.Errorf("%w: got %d, want %d", ErrChunkOutOfOrder, n, s.accepted)
	}
	s.touchLocked()
	if len(data) > s.capBytes {
		return nil, fmt.Errorf("%w: chunk over ring capacity %d bytes", ErrChunkTooLarge, s.capBytes)
	}
	if s.feeding {
		return s.published, nil
	}
	if s.stagedBytes+len(data) > s.capBytes || e.faults.Hit(faults.SiteIngestRingFull) {
		// The pump is behind the producer: bounded backpressure, not
		// unbounded buffering. The producer backs off (429 +
		// Retry-After); its own capture ring absorbing the pause is what
		// turns a slow consumer into the paper's sequence-gap loss.
		s.phase = IngestPaused
		return nil, fmt.Errorf("%w (ring %d/%d bytes)", ErrIngestPaused, s.stagedBytes, s.capBytes)
	}
	s.staged = append(s.staged, ingestChunk{n: n, data: data})
	s.stagedBytes += len(data)
	s.accepted++
	s.phase = IngestStreaming
	s.wakeLocked()
	return nil, nil
}

// CloseIngest ends the producer side of a session: the pump drains the
// staged backlog, seals the final partial window, and the job finishes
// done. Idempotent — closing a draining or terminal session just
// returns its status.
func (e *Engine) CloseIngest(id string) (RunStatus, error) {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	j, err := e.reg.kindLocked(id, KindIngest)
	if err != nil {
		return RunStatus{}, err
	}
	s := j.ingest
	if !s.phase.Terminal() && !s.closing {
		s.closing = true
		s.phase = IngestDraining
		s.touchLocked()
		s.wakeLocked()
	}
	return e.statusLocked(j), nil
}

// IngestWindowAt returns window i of a session. have reports the
// window exists; ended reports the session is terminal with no window
// i coming. With wait set it blocks until one of those (or ctx ends) —
// the follow mode of the metrics stream.
func (e *Engine) IngestWindowAt(ctx context.Context, id string, i int, wait bool) (win IngestWindow, have, ended bool, err error) {
	err = e.await(ctx, func() (<-chan struct{}, error) {
		j, jerr := e.reg.kindLocked(id, KindIngest)
		if jerr != nil {
			return nil, jerr
		}
		s := j.ingest
		switch {
		case i < len(s.windows):
			win, have = s.windows[i], true
		case s.phase.Terminal():
			ended = true
		case wait:
			return s.published, nil
		}
		return nil, nil
	})
	return win, have, ended, err
}

// ingestPump is a session's single consumer and single finisher: it
// drains staged chunks through the decoder and pipeline, journals the
// high-water mark after each chunk, and performs the one terminal
// transition — done (client closed), expired (idle), cancelled, failed
// (interrupted by drain, or a panicked pipeline). Every other path —
// DELETE, idle timer, Shutdown — only sets flags and wakes it, which is
// what makes "never a zombie" a structural property rather than a
// convention.
func (e *Engine) ingestPump(j *Job, s *ingestSession) {
	defer e.ingestWG.Done()
	var panicked error
	func() {
		defer func() {
			if r := recover(); r != nil {
				// Contain a poisoned pipeline on this goroutine: the
				// session fails, the daemon lives.
				panicked = fmt.Errorf("%w: ingest pipeline: %v", ErrRunPanicked, r)
				e.logf("ingest %s pipeline panicked: %v", j.ID, r)
			}
		}()
		e.ingestPumpLoop(j, s)
	}()
	e.finishIngest(j, s, panicked)
}

// ingestPumpLoop runs until a terminal cause is flagged (and, for
// close/drain, the backlog is drained). Each cycle pops a chunk under
// reg.mu, feeds it with no lock held, and publishes the result in one
// reg.mu section, so a feed stalls no other engine call.
func (e *Engine) ingestPumpLoop(j *Job, s *ingestSession) {
	stalled := false
	for {
		e.reg.mu.Lock()
		if s.cancelled || s.expired || s.ctx.Err() != nil {
			e.reg.mu.Unlock()
			return // immediate: discard the backlog
		}
		if len(s.staged) == 0 {
			drained := s.closing || s.shut
			e.reg.mu.Unlock()
			if drained {
				return // close or interrupt finishes below
			}
			select {
			case <-s.wake:
			case <-s.ctx.Done():
			}
			continue
		}
		if !stalled && e.faults.Hit(faults.SiteIngestPumpStall) {
			e.reg.mu.Unlock()
			// Parked, not sleeping: a deterministically slow consumer
			// whose next chunk stays staged until the test opens the gate
			// or the session ends.
			_ = e.faults.Gate(faults.SiteIngestPumpStall).Wait(s.ctx) //hopplint:errok a cancelled wait is re-checked at the loop top before anything is popped
			stalled = true
			continue
		}
		stalled = false
		c := s.staged[0]
		s.staged = s.staged[1:]
		s.stagedBytes -= len(c.data)
		if s.phase == IngestPaused && s.stagedBytes*2 <= s.capBytes {
			// Hysteresis: unpause only once half the ring is free, so a
			// producer retrying at the bound does not flap.
			s.phase = IngestStreaming
		}
		s.feeding = true
		from, next := s.winStart, len(s.windows)
		e.reg.mu.Unlock()

		sealed, start := s.feed(c.data, from, next)

		// The per-chunk durable high-water mark advances in the section
		// that journals the chunk, which every status read also holds,
		// so no poll reports a chunk durable before its journal line
		// exists.
		e.reg.mu.Lock()
		s.publish()
		s.windows = append(s.windows, sealed...)
		s.winStart = start
		s.processed = c.n + 1
		s.touchLocked()
		j.progress.Store(int64(s.counts.Records))
		e.reg.journalLocked(j)
		s.feeding = false
		close(s.published)
		s.published = make(chan struct{})
		e.reg.mu.Unlock()
	}
}

// finishIngest performs the session's single terminal transition.
// reg.mu spans the phase change and the job's terminal state, so no
// caller that takes reg.mu — Cancel, status — meets a terminal phase on
// a job still running.
func (e *Engine) finishIngest(j *Job, s *ingestSession, panicked error) {
	e.reg.mu.Lock()
	var state JobState
	var cause error
	switch {
	case panicked != nil:
		state, cause = StateFailed, panicked
		s.phase = IngestFailed
	case s.cancelled:
		state, cause = StateCancelled, context.Canceled
		s.phase = IngestCancelled
	case s.expired:
		state, cause = StateFailed, ErrIngestExpired
		s.phase = IngestExpired
	case s.closing:
		// Drained to the end of the client's stream: seal the final
		// partial window. A trailing torn record (PartialTail bytes)
		// stays in the decoder, surfaced in status, never guessed at.
		s.sealPartialLocked()
		state = StateDone
		s.phase = IngestDone
	default: // engine drain interrupted a live session
		state, cause = StateFailed, ErrIngestInterrupted
		s.phase = IngestFailed
		s.sealPartialLocked()
	}
	s.idle.Stop()
	// Release every waiter — paced PUTs and metrics followers — for
	// good, whatever the outcome.
	s.feeding = false
	close(s.published)
	c := s.counts

	e.ctr.IngestRecords += c.Records
	e.ctr.IngestLossRecords += c.LossRecords
	if errors.Is(cause, ErrIngestExpired) {
		e.ctr.IngestSessionsExpired++
	}
	j.progress.Store(int64(c.Records))
	j.wallNS = time.Since(j.started).Nanoseconds()
	e.finishLocked(j, state, cause, time.Now())
	e.reg.mu.Unlock()
	s.cancel()
}

// removeLiveIngestLocked drops a finished ingest job from the live
// list; reg.mu must be held.
func (e *Engine) removeLiveIngestLocked(j *Job) {
	for i, live := range e.liveIngests {
		if live == j {
			e.liveIngests = append(e.liveIngests[:i], e.liveIngests[i+1:]...)
			return
		}
	}
}

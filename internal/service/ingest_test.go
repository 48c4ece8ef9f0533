package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hopp/internal/faults"
	"hopp/internal/hmtt"
	"hopp/internal/memsim"
	"hopp/internal/prefetch"
	"hopp/internal/sim"
	"hopp/internal/tracepipe"
	"hopp/internal/vclock"
)

// encodeTrace synthesizes n encoded HMTT records with a contiguous
// sequence starting at seqStart, skipping the sequence numbers in skip
// to fabricate capture loss. The page walk mixes reads and writes over
// a reusing footprint so the HPD actually promotes pages.
func encodeTrace(n int, seqStart uint8, skip map[uint8]bool) []byte {
	var buf bytes.Buffer
	seq := seqStart
	emitted := 0
	for emitted < n {
		if skip[seq] {
			seq++
			continue
		}
		r := hmtt.Record{
			Seq:            seq,
			TimestampDelta: uint8(1 + emitted%5),
			Write:          emitted%7 == 3,
			// A small reusing footprint so pages cross the HPD's
			// default hot threshold (8 accesses) within one short trace.
			Page: memsim.PPN(uint64(emitted % 7)),
		}
		var b [hmtt.RecordSize]byte
		r.Encode(b[:])
		buf.Write(b[:])
		seq++
		emitted++
	}
	return buf.Bytes()
}

// ingestOpts is a baseline engine config for ingest tests: no sim
// workers needed, short-but-safe idle deadline.
func ingestOpts() Options {
	return Options{Workers: 1, IngestIdleTimeout: time.Minute}
}

func openIngestT(t *testing.T, e *Engine, windowRecords int) RunStatus {
	t.Helper()
	st, err := e.OpenIngest(IngestRequest{System: "hopp", WindowRecords: windowRecords})
	if err != nil {
		t.Fatalf("OpenIngest: %v", err)
	}
	if st.State != StateRunning || st.Ingest == nil || st.Ingest.Phase != IngestStreaming {
		t.Fatalf("open status = %+v, want running/streaming", st)
	}
	return st
}

// putAll uploads a trace as fixed-size chunks starting at index 0.
func putAll(t *testing.T, e *Engine, id string, trace []byte, chunkBytes int) int {
	t.Helper()
	n := 0
	for off := 0; off < len(trace); off += chunkBytes {
		end := off + chunkBytes
		if end > len(trace) {
			end = len(trace)
		}
		if _, err := e.IngestChunk(context.Background(), id, n, bytes.NewReader(trace[off:end])); err != nil {
			t.Fatalf("chunk %d: %v", n, err)
		}
		n++
	}
	return n
}

// waitIngest polls a session until cond holds or the deadline passes.
func waitIngest(t *testing.T, e *Engine, id string, cond func(RunStatus) bool) RunStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := e.IngestStatusByID(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting on session %s; last status %+v ingest %+v", id, st, st.Ingest)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// closeAndWaitDone drains the session to done and returns its windows.
func closeAndWaitDone(t *testing.T, e *Engine, id string) []IngestWindow {
	t.Helper()
	if _, err := e.CloseIngest(id); err != nil {
		t.Fatalf("CloseIngest: %v", err)
	}
	st := waitIngest(t, e, id, func(st RunStatus) bool { return st.State.Terminal() })
	if st.State != StateDone {
		t.Fatalf("session %s finished %s: %s", id, st.State, st.Error)
	}
	return windowsOf(t, e, id)
}

// windowsOf snapshots a session's finished windows.
func windowsOf(t *testing.T, e *Engine, id string) []IngestWindow {
	t.Helper()
	var wins []IngestWindow
	for i := 0; ; i++ {
		w, have, _, err := e.IngestWindowAt(context.Background(), id, i, false)
		if err != nil {
			t.Fatal(err)
		}
		if !have {
			return wins
		}
		wins = append(wins, w)
	}
}

// The typed shutdown error must identify itself as a drain casualty.
func TestIngestInterruptedWrapsDrainIncomplete(t *testing.T) {
	if !errors.Is(ErrIngestInterrupted, ErrDrainIncomplete) {
		t.Fatal("ErrIngestInterrupted must wrap ErrDrainIncomplete")
	}
}

// panicPrefetcher is a registry-style prefetcher poisoned on its first
// fault.
type panicPrefetcher struct{ prefetch.NopFeedback }

func (panicPrefetcher) Name() string { return "panic" }
func (panicPrefetcher) Inject() bool { return false }
func (panicPrefetcher) OnFault(vclock.Time, memsim.PageKey) []memsim.VPN {
	panic("poisoned prefetcher")
}

// gatePrefetcher parks the pipeline mid-feed: every fault waits on
// gate until it opens.
type gatePrefetcher struct {
	prefetch.NopFeedback
	gate *faults.Gate
}

func (gatePrefetcher) Name() string { return "gate" }
func (gatePrefetcher) Inject() bool { return false }
func (g gatePrefetcher) OnFault(vclock.Time, memsim.PageKey) []memsim.VPN {
	_ = g.gate.Wait(context.Background()) //hopplint:errok Background never ends, so Wait returns only once the gate opens
	return nil
}

// swapPipeline gives a fresh session a pipeline driven by the demand
// prefetcher p. No chunk is staged yet, so the pump is idle, and the
// registry lock orders the swap before its first feed.
func swapPipeline(t *testing.T, e *Engine, id string, p prefetch.Prefetcher) {
	t.Helper()
	pipe, err := tracepipe.New(tracepipe.Config{
		System:    sim.System{Name: p.Name(), NewFault: func(prefetch.RegionResolver) prefetch.Prefetcher { return p }},
		LocalFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.reg.mu.Lock()
	e.reg.jobs[id].ingest.pipe = pipe
	e.reg.mu.Unlock()
}

// waitParked waits until some caller is parked on the gate.
func waitParked(t *testing.T, g *faults.Gate, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s never parked on its gate", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A pipeline that panics mid-chunk fails only its own session, as a
// panicked job of any other kind does: ErrRunPanicked in the error and
// jobs.ingest.panicked ticked alongside failed.
func TestIngestPipelinePanicCountsAsPanicked(t *testing.T) {
	e := newTestEngine(t, ingestOpts())
	st := openIngestT(t, e, 16)
	swapPipeline(t, e, st.ID, panicPrefetcher{})

	if _, err := e.IngestChunk(context.Background(), st.ID, 0, bytes.NewReader(encodeTrace(8, 0, nil))); err != nil {
		t.Fatal(err)
	}
	got := waitIngest(t, e, st.ID, func(st RunStatus) bool { return st.State.Terminal() })
	if got.State != StateFailed || !strings.Contains(got.Error, ErrRunPanicked.Error()) {
		t.Fatalf("state=%s err=%q, want failed with %q", got.State, got.Error, ErrRunPanicked)
	}
	if kc := e.Metrics().Jobs[KindIngest]; kc.Failed != 1 || kc.Panicked != 1 {
		t.Fatalf("jobs.ingest = %+v, want failed 1 panicked 1", kc)
	}
}

// A feed holds no engine lock. While the pump is parked mid-feed, the
// next chunk's PUT waits — the producer stays paced by the pipeline —
// but metrics, the job list, the session's status and a sim submission
// all answer. Once the feed ends the PUT is acked, and the session
// finishes with every record in exactly one window.
func TestIngestFeedStallsNoEngineCall(t *testing.T) {
	e := newTestEngine(t, ingestOpts())
	st := openIngestT(t, e, 16)
	gate := faults.NewGate()
	t.Cleanup(gate.Open) // runs before the engine's cleanup drains the pump
	swapPipeline(t, e, st.ID, gatePrefetcher{gate: gate})
	trace := encodeTrace(64, 0, nil)
	half := len(trace) / 2
	if _, err := e.IngestChunk(context.Background(), st.ID, 0, bytes.NewReader(trace[:half])); err != nil {
		t.Fatalf("chunk 0: %v", err)
	}
	waitParked(t, gate, "the pump")

	put := make(chan error, 1)
	go func() {
		_, err := e.IngestChunk(context.Background(), st.ID, 1, bytes.NewReader(trace[half:]))
		put <- err
	}()
	within := func(name string, call func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s during the feed: %v", name, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s blocked behind the parked feed", name)
		}
	}
	within("Metrics", func() error { e.Metrics(); return nil })
	within("Runs", func() error { e.Runs(); return nil })
	within("Status", func() error { _, err := e.Status(st.ID); return err })
	within("Submit", func() error {
		_, err := e.Submit(RunRequest{Workload: "sequential", System: "fastswap", Quick: true})
		return err
	})
	select {
	case err := <-put:
		t.Fatalf("chunk 1 answered (err %v) while chunk 0 was still feeding", err)
	case <-time.After(50 * time.Millisecond):
	}

	gate.Open()
	if err := <-put; err != nil {
		t.Fatalf("chunk 1 after the feed: %v", err)
	}
	wins := closeAndWaitDone(t, e, st.ID)
	var records uint64
	for i, w := range wins {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		records += w.Records
	}
	if len(wins) != 4 || records != 64 {
		t.Fatalf("%d windows holding %d records, want 4 holding all 64", len(wins), records)
	}
}

func TestIngestHappyPathWindows(t *testing.T) {
	e := newTestEngine(t, ingestOpts())
	trace := encodeTrace(100, 0, nil)
	st := openIngestT(t, e, 32)
	putAll(t, e, st.ID, trace, 17*hmtt.RecordSize) // deliberately tears records across chunks
	wins := closeAndWaitDone(t, e, st.ID)

	// 100 records in 32-record windows: 3 full + 1 final partial of 4.
	if len(wins) != 4 {
		t.Fatalf("windows = %d, want 4", len(wins))
	}
	var records, reads, writes uint64
	for i, w := range wins {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		if i < 3 && w.Records != 32 {
			t.Fatalf("window %d records = %d, want 32", i, w.Records)
		}
		if w.LossRecords != 0 {
			t.Fatalf("window %d loss = %d on contiguous stream", i, w.LossRecords)
		}
		if i > 0 && w.StartNS != wins[i-1].EndNS {
			t.Fatalf("window %d starts at %d, previous ended %d", i, w.StartNS, wins[i-1].EndNS)
		}
		if w.EndNS <= w.StartNS {
			t.Fatalf("window %d spans [%d,%d]", i, w.StartNS, w.EndNS)
		}
		records += w.Records
		reads += w.Reads
		writes += w.Writes
	}
	if records != 100 || reads+writes != 100 {
		t.Fatalf("windows cover %d records (%d reads, %d writes), want 100", records, reads, writes)
	}

	final := waitIngest(t, e, st.ID, func(RunStatus) bool { return true })
	if final.Ingest.Records != 100 || final.Ingest.HotPages == 0 {
		t.Fatalf("final ingest block %+v: want 100 records and a warm HPD", final.Ingest)
	}
	m := e.Metrics()
	if m.Jobs[KindIngest].Completed != 1 || m.IngestRecords != 100 || m.IngestSessionsActive != 0 {
		t.Fatalf("metrics: completed=%d ingest_records=%d active=%d",
			m.Jobs[KindIngest].Completed, m.IngestRecords, m.IngestSessionsActive)
	}
}

// Capture loss (sequence gaps) is charged to the window where the gap
// lands, and survives records torn across chunk boundaries.
func TestIngestLossSurfacesPerWindow(t *testing.T) {
	e := newTestEngine(t, ingestOpts())
	trace := encodeTrace(64, 250, map[uint8]bool{40: true, 41: true, 42: true})
	st := openIngestT(t, e, 16)
	putAll(t, e, st.ID, trace, 13) // non-record-aligned chunks
	wins := closeAndWaitDone(t, e, st.ID)
	var loss uint64
	for _, w := range wins {
		loss += w.LossRecords
	}
	if loss != 3 {
		t.Fatalf("windows report %d lost records, want 3", loss)
	}
	if st, _ := e.IngestStatusByID(st.ID); st.Ingest.LossRecords != 3 {
		t.Fatalf("session loss = %d, want 3", st.Ingest.LossRecords)
	}
}

// A chunk whose body read tears mid-PUT leaves the session exactly
// where it was: same acked index, resumable, and after the retry the
// windows are byte-identical to an uninterrupted run's.
func TestIngestTornChunkRetryByteIdentical(t *testing.T) {
	trace := encodeTrace(96, 0, map[uint8]bool{30: true})
	const chunkBytes = 25 // tears records across every boundary

	// Control: uninterrupted.
	ctl := newTestEngine(t, ingestOpts())
	cst := openIngestT(t, ctl, 16)
	putAll(t, ctl, cst.ID, trace, chunkBytes)
	want := closeAndWaitDone(t, ctl, cst.ID)

	// Faulted: chunk 2's body read fails, then the client retries it.
	inj := faults.New(1)
	opts := ingestOpts()
	opts.Faults = inj
	e := newTestEngine(t, opts)
	st := openIngestT(t, e, 16)
	n := 0
	for off := 0; off < len(trace); off += chunkBytes {
		end := off + chunkBytes
		if end > len(trace) {
			end = len(trace)
		}
		if n == 2 {
			inj.Enable(faults.SiteIngestChunkRead, faults.Always())
			_, err := e.IngestChunk(context.Background(), st.ID, n, bytes.NewReader(trace[off:end]))
			if !errors.Is(err, ErrChunkRead) || !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("torn chunk err = %v, want ErrChunkRead wrapping ErrInjected", err)
			}
			inj.Disable(faults.SiteIngestChunkRead)
			got, err := e.IngestStatusByID(st.ID)
			if err != nil || got.Ingest.ChunksAcked != 2 || got.Ingest.Phase.Terminal() {
				t.Fatalf("after torn chunk: %+v, %v — want still acked=2 and live", got.Ingest, err)
			}
		}
		if _, err := e.IngestChunk(context.Background(), st.ID, n, bytes.NewReader(trace[off:end])); err != nil {
			t.Fatalf("chunk %d retry: %v", n, err)
		}
		n++
	}
	// A duplicate of an already-acked chunk re-acks without reprocessing.
	if _, err := e.IngestChunk(context.Background(), st.ID, 0, bytes.NewReader(trace[:chunkBytes])); err != nil {
		t.Fatalf("duplicate chunk: %v", err)
	}
	got := closeAndWaitDone(t, e, st.ID)

	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Fatalf("windows diverged after torn-chunk retry:\nwant %s\ngot  %s", wb, gb)
	}
	if m := e.Metrics(); m.IngestChunksRetried != 1 {
		t.Fatalf("ingest_chunks_retried = %d, want 1", m.IngestChunksRetried)
	}
}

// A slow pump fills the staging ring; the producer gets paused + a
// typed retry error instead of unbounded buffering, and streaming
// resumes once the pump drains.
func TestIngestRingFullPausesThenResumes(t *testing.T) {
	inj := faults.New(1)
	opts := ingestOpts()
	opts.Faults = inj
	opts.IngestRingRecords = 8 // 48-byte ring
	e := newTestEngine(t, opts)
	trace := encodeTrace(32, 0, nil)
	st := openIngestT(t, e, 8)

	// Park the pump: every chunk it pops waits at the stall gate.
	inj.Enable(faults.SiteIngestPumpStall, faults.Always())
	chunk := func(i int) []byte { return trace[i*4*hmtt.RecordSize : (i+1)*4*hmtt.RecordSize] }
	if _, err := e.IngestChunk(context.Background(), st.ID, 0, bytes.NewReader(chunk(0))); err != nil {
		t.Fatalf("chunk 0: %v", err)
	}
	// Wait for the pump to park before popping chunk 0, so later chunks
	// stay staged behind it.
	waitParked(t, inj.Gate(faults.SiteIngestPumpStall), "the pump")
	if _, err := e.IngestChunk(context.Background(), st.ID, 1, bytes.NewReader(chunk(1))); err != nil {
		t.Fatalf("chunk 1 should fit the half-empty ring: %v", err)
	}
	next := 2
	var pauseErr error
	for ; next < 8; next++ {
		if _, pauseErr = e.IngestChunk(context.Background(), st.ID, next, bytes.NewReader(chunk(next))); pauseErr != nil {
			break
		}
	}
	if !errors.Is(pauseErr, ErrIngestPaused) {
		t.Fatalf("filling the ring: err = %v, want ErrIngestPaused", pauseErr)
	}
	if got, _ := e.IngestStatusByID(st.ID); got.Ingest.Phase != IngestPaused {
		t.Fatalf("phase = %s, want paused", got.Ingest.Phase)
	}

	// Release the pump; the producer retries the same chunk and finishes.
	inj.Disable(faults.SiteIngestPumpStall)
	inj.Gate(faults.SiteIngestPumpStall).Open()
	for ; next < 8; next++ {
		var err error
		for attempt := 0; ; attempt++ {
			if _, err = e.IngestChunk(context.Background(), st.ID, next, bytes.NewReader(chunk(next))); !errors.Is(err, ErrIngestPaused) {
				break
			}
			if attempt > 5000 {
				t.Fatal("ring never drained")
			}
			time.Sleep(time.Millisecond)
		}
		if err != nil {
			t.Fatalf("chunk %d after resume: %v", next, err)
		}
	}
	wins := closeAndWaitDone(t, e, st.ID)
	var records uint64
	for _, w := range wins {
		records += w.Records
	}
	if records != 32 {
		t.Fatalf("drained %d records, want all 32 despite the pause", records)
	}
}

// The forced ring-full site trips the paused path without real
// backpressure; the next PUT of the same chunk succeeds.
func TestIngestRingFullInjected(t *testing.T) {
	inj := faults.New(1)
	opts := ingestOpts()
	opts.Faults = inj
	e := newTestEngine(t, opts)
	trace := encodeTrace(8, 0, nil)
	st := openIngestT(t, e, 8)
	inj.Enable(faults.SiteIngestRingFull, faults.OnHits(1))
	_, err := e.IngestChunk(context.Background(), st.ID, 0, bytes.NewReader(trace))
	if !errors.Is(err, ErrIngestPaused) {
		t.Fatalf("err = %v, want ErrIngestPaused", err)
	}
	if _, err := e.IngestChunk(context.Background(), st.ID, 0, bytes.NewReader(trace)); err != nil {
		t.Fatalf("retry after injected ring-full: %v", err)
	}
	closeAndWaitDone(t, e, st.ID)
}

// Cancelling a session whose pump is parked mid-stall unwinds promptly:
// the gate wait is context-bound, the session lands cancelled, never
// wedged.
func TestIngestCancelWhilePumpStalled(t *testing.T) {
	inj := faults.New(1)
	opts := ingestOpts()
	opts.Faults = inj
	e := newTestEngine(t, opts)
	st := openIngestT(t, e, 8)
	inj.Enable(faults.SiteIngestPumpStall, faults.Always())
	if _, err := e.IngestChunk(context.Background(), st.ID, 0, bytes.NewReader(encodeTrace(8, 0, nil))); err != nil {
		t.Fatal(err)
	}
	waitParked(t, inj.Gate(faults.SiteIngestPumpStall), "the pump")
	if err := e.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	got := waitIngest(t, e, st.ID, func(st RunStatus) bool { return st.State.Terminal() })
	if got.State != StateCancelled || got.Ingest.Phase != IngestCancelled {
		t.Fatalf("state=%s phase=%s, want cancelled/cancelled", got.State, got.Ingest.Phase)
	}
	if m := e.Metrics(); m.Jobs[KindIngest].Cancelled != 1 {
		t.Fatalf("jobs.ingest.cancelled = %d, want 1", m.Jobs[KindIngest].Cancelled)
	}
}

// Journal appends failing under a session does not fail the session:
// the stream completes, the errors are counted, health degrades.
func TestIngestJournalAppendFailureBestEffort(t *testing.T) {
	inj := faults.New(1)
	var buf bytes.Buffer
	opts := ingestOpts()
	opts.Faults = inj
	opts.Journal = NewJournal(&buf)
	e := newTestEngine(t, opts)
	inj.Enable(faults.SiteJournalAppend, faults.Always())
	st := openIngestT(t, e, 16)
	putAll(t, e, st.ID, encodeTrace(48, 0, nil), 10*hmtt.RecordSize)
	closeAndWaitDone(t, e, st.ID)
	m := e.Metrics()
	if m.JournalWriteErrors == 0 || !m.JournalLastWriteFailed {
		t.Fatalf("journal errors=%d lastFailed=%t, want counted and degraded", m.JournalWriteErrors, m.JournalLastWriteFailed)
	}
	if buf.Len() != 0 {
		t.Fatalf("journal buffer has %d bytes despite Always-failing appends", buf.Len())
	}
}

// An abandoned session — client opens, uploads, vanishes — expires on
// the idle deadline and frees its slot: terminal with cause, never a
// zombie.
func TestIngestClientAbandonExpires(t *testing.T) {
	opts := ingestOpts()
	opts.IngestIdleTimeout = 30 * time.Millisecond
	e := newTestEngine(t, opts)
	st := openIngestT(t, e, 16)
	putAll(t, e, st.ID, encodeTrace(8, 0, nil), 8*hmtt.RecordSize)
	got := waitIngest(t, e, st.ID, func(st RunStatus) bool { return st.State.Terminal() })
	if got.State != StateFailed || got.Ingest.Phase != IngestExpired {
		t.Fatalf("state=%s phase=%s err=%q, want failed/expired", got.State, got.Ingest.Phase, got.Error)
	}
	if !strings.Contains(got.Error, "idle timeout") {
		t.Fatalf("error %q does not name the idle timeout", got.Error)
	}
	m := e.Metrics()
	if m.IngestSessionsExpired != 1 || m.IngestSessionsActive != 0 {
		t.Fatalf("expired=%d active=%d, want 1/0", m.IngestSessionsExpired, m.IngestSessionsActive)
	}
	// The slot is genuinely free: a new session opens immediately.
	openIngestT(t, e, 16)
}

// Engine drain with a live session: the pump finishes the staged
// backlog, then the session fails with the typed interrupted error —
// and no pump goroutine outlives Shutdown.
func TestIngestDrainInterruptedTypedNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(ingestOpts())
	st, err := e.OpenIngest(IngestRequest{System: "hopp", WindowRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	trace := encodeTrace(64, 0, nil)
	if _, err := e.IngestChunk(context.Background(), st.ID, 0, bytes.NewReader(trace)); err != nil {
		t.Fatal(err)
	}
	// No close: the client is mid-stream when the daemon drains.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	got, err := e.IngestStatusByID(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || !strings.Contains(got.Error, "interrupted by shutdown") {
		t.Fatalf("state=%s err=%q, want failed + interrupted-by-shutdown", got.State, got.Error)
	}
	// The staged backlog was processed, not dropped: drain is graceful.
	if got.Ingest.Records != 64 {
		t.Fatalf("records = %d, want the staged 64 drained before failing", got.Ingest.Records)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines = %d after drain, want <= %d", runtime.NumGoroutine(), before)
}

func TestIngestSessionLimit(t *testing.T) {
	opts := ingestOpts()
	opts.MaxIngests = 1
	e := newTestEngine(t, opts)
	openIngestT(t, e, 16)
	_, err := e.OpenIngest(IngestRequest{})
	if !errors.Is(err, ErrIngestLimit) {
		t.Fatalf("second open err = %v, want ErrIngestLimit", err)
	}
}

func TestIngestOpenValidation(t *testing.T) {
	e := newTestEngine(t, ingestOpts())
	if _, err := e.OpenIngest(IngestRequest{System: "no-such-system"}); !errors.Is(err, ErrUnknownSystem) {
		t.Fatalf("err = %v, want ErrUnknownSystem", err)
	}
	bad := 1.5
	if _, err := e.OpenIngest(IngestRequest{Frac: &bad}); !errors.Is(err, ErrBadFrac) {
		t.Fatalf("err = %v, want ErrBadFrac", err)
	}
}

// Daemon restart mid-stream: the journal restores the session as
// resumable at its durable chunk high-water mark; finished windows
// replay byte-identically; the client rewinds, re-uploads, and the
// stream completes.
func TestIngestJournalReplayMidStream(t *testing.T) {
	trace := encodeTrace(128, 0, map[uint8]bool{60: true})
	const chunkBytes = 23 // torn records across boundaries and across the crash
	chunks := func(b []byte) [][]byte {
		var out [][]byte
		for off := 0; off < len(b); off += chunkBytes {
			end := off + chunkBytes
			if end > len(b) {
				end = len(b)
			}
			out = append(out, b[off:end])
		}
		return out
	}
	all := chunks(trace)

	// Control: one uninterrupted run.
	ctl := newTestEngine(t, ingestOpts())
	cst := openIngestT(t, ctl, 16)
	putAll(t, ctl, cst.ID, trace, chunkBytes)
	want := closeAndWaitDone(t, ctl, cst.ID)

	// First daemon: journal to a buffer, upload half, then "crash"
	// (abandon the engine without closing the session).
	var jbuf bytes.Buffer
	opts1 := ingestOpts()
	opts1.Journal = NewJournal(&jbuf)
	e1 := newTestEngine(t, opts1)
	st := openIngestT(t, e1, 16)
	half := len(all) / 2
	for i := 0; i < half; i++ {
		if _, err := e1.IngestChunk(context.Background(), st.ID, i, bytes.NewReader(all[i])); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	waitIngest(t, e1, st.ID, func(s RunStatus) bool { return s.Ingest.ChunksDurable == half })
	// Snapshot the journal under reg.mu: every append holds it, so the
	// copy can't tear a line.
	e1.reg.mu.Lock()
	crashJournal := append([]byte(nil), jbuf.Bytes()...)
	e1.reg.mu.Unlock()

	// Second daemon: replay, expect one resumed session.
	e2 := newTestEngine(t, ingestOpts())
	stats, err := e2.ReplayJournal(bytes.NewReader(crashJournal))
	if err != nil {
		t.Fatalf("ReplayJournal: %v", err)
	}
	if stats.Malformed != 0 || stats.Recovered == 0 {
		t.Fatalf("replay stats %+v", stats)
	}
	m := e2.Metrics()
	if m.JournalReplayed != 1 {
		t.Fatalf("journal_replayed = %d, want 1 (sessions, not lines)", m.JournalReplayed)
	}
	if m.IngestSessionsActive != 1 {
		t.Fatalf("ingest_sessions_active = %d, want 1 resumed session", m.IngestSessionsActive)
	}
	got, err := e2.IngestStatusByID(st.ID)
	if err != nil {
		t.Fatalf("resumed session status: %v", err)
	}
	if got.State != StateRunning || got.Ingest.Phase != IngestPaused || !got.Ingest.Resumed {
		t.Fatalf("resumed session = %s/%s resumed=%t, want running/paused/true", got.State, got.Ingest.Phase, got.Ingest.Resumed)
	}
	if got.Ingest.ChunksDurable != half || got.Ingest.ChunksAcked != half {
		t.Fatalf("resumed HWM acked=%d durable=%d, want %d", got.Ingest.ChunksAcked, got.Ingest.ChunksDurable, half)
	}

	// Windows finished before the crash replay byte-identically.
	replayed := windowsOf(t, e2, st.ID)
	for i, w := range replayed {
		wb, _ := json.Marshal(want[i])
		gb, _ := json.Marshal(w)
		if !bytes.Equal(wb, gb) {
			t.Fatalf("replayed window %d:\nwant %s\ngot  %s", i, wb, gb)
		}
	}

	// The client re-syncs to the durable HWM and continues — including a
	// duplicate of the last durable chunk, which re-acks idempotently.
	if _, err := e2.IngestChunk(context.Background(), st.ID, half-1, bytes.NewReader(all[half-1])); err != nil {
		t.Fatalf("duplicate chunk after restart: %v", err)
	}
	for i := half; i < len(all); i++ {
		if _, err := e2.IngestChunk(context.Background(), st.ID, i, bytes.NewReader(all[i])); err != nil {
			t.Fatalf("chunk %d after restart: %v", i, err)
		}
	}
	final := closeAndWaitDone(t, e2, st.ID)
	if m := e2.Metrics(); m.IngestChunksRetried != 1 {
		t.Fatalf("ingest_chunks_retried = %d, want 1", m.IngestChunksRetried)
	}

	// Every window's framing — record counts, read/write split, loss,
	// virtual-clock bounds — is exact across the restart. (Pipeline
	// warm-up state is deliberately not journaled, so hot/prefetch
	// counts may differ in post-crash windows; the stream accounting
	// must not.)
	if len(final) != len(want) {
		t.Fatalf("windows = %d, want %d", len(final), len(want))
	}
	for i := range want {
		w, g := want[i], final[i]
		w.HotPages, g.HotPages = 0, 0
		w.Prefetches, g.Prefetches = 0, 0
		w.PrefetchHits, g.PrefetchHits = 0, 0
		if w != g {
			t.Fatalf("window %d framing diverged across restart:\nwant %+v\ngot  %+v", i, want[i], final[i])
		}
	}

	// A session whose terminal entry IS journaled replays terminal, not
	// resumable: replay the second daemon's full journal (it has none —
	// jbuf belongs to e1) by reusing e1's buffer after e1 drains.
	// e1's cleanup shutdown will fail its copy of the session; that
	// terminal entry lands in jbuf and must replay as failed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e1.Shutdown(ctx)
	e3 := newTestEngine(t, ingestOpts())
	if _, err := e3.ReplayJournal(bytes.NewReader(jbuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	term, err := e3.IngestStatusByID(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !term.State.Terminal() {
		t.Fatalf("session with journaled terminal entry replayed %s, want terminal", term.State)
	}
	if m := e3.Metrics(); m.IngestSessionsActive != 0 {
		t.Fatalf("terminal replay left %d active sessions", m.IngestSessionsActive)
	}
}

// A status poll never reports a chunk durable before its journal line
// exists. The pump parks mid-feed on a gated prefetcher; the test reads
// the status and the journal there, under reg.mu, and again once the
// chunk is durable.
func TestIngestDurableMarkFollowsJournal(t *testing.T) {
	var jbuf bytes.Buffer
	opts := ingestOpts()
	opts.Journal = NewJournal(&jbuf)
	e := newTestEngine(t, opts)
	st := openIngestT(t, e, 16)
	gate := faults.NewGate()
	t.Cleanup(gate.Open)
	swapPipeline(t, e, st.ID, gatePrefetcher{gate: gate})
	// journaled reads the durable mark of the journal's last line from a
	// copy taken under reg.mu, which every append holds.
	journaled := func(snap []byte) int {
		t.Helper()
		entries, err := ReadJournal(bytes.NewReader(snap))
		if err != nil || len(entries) == 0 || entries[len(entries)-1].Ingest == nil {
			t.Fatalf("journal: %d entries, %v", len(entries), err)
		}
		return entries[len(entries)-1].Ingest.ChunksAcked
	}

	if _, err := e.IngestChunk(context.Background(), st.ID, 0, bytes.NewReader(encodeTrace(32, 0, nil))); err != nil {
		t.Fatalf("chunk 0: %v", err)
	}
	waitParked(t, gate, "the pump")

	e.reg.mu.Lock()
	durable, snap := e.statusLocked(e.reg.jobs[st.ID]).Ingest.ChunksDurable, bytes.Clone(jbuf.Bytes())
	e.reg.mu.Unlock()
	if inJournal := journaled(snap); durable > inJournal {
		t.Fatalf("status reports %d chunks durable, journal holds %d", durable, inJournal)
	}

	gate.Open()
	waitIngest(t, e, st.ID, func(s RunStatus) bool { return s.Ingest.ChunksDurable == 1 })
	e.reg.mu.Lock()
	snap = bytes.Clone(jbuf.Bytes())
	e.reg.mu.Unlock()
	if inJournal := journaled(snap); inJournal != 1 {
		t.Fatalf("journal holds %d chunks after the durable mark reached 1", inJournal)
	}
}

// The full HTTP surface: open, chunked PUT with idempotent retry,
// status, paused 429 + Retry-After, out-of-order 409, oversize 413,
// kind-mismatch 404, NDJSON metrics (snapshot and follow), close,
// cancel-after-terminal 409.
func TestIngestHTTPSurface(t *testing.T) {
	inj := faults.New(1)
	opts := ingestOpts()
	opts.Faults = inj
	opts.IngestRingRecords = 32
	e := newTestEngine(t, opts)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	client := srv.Client()

	do := func(method, path string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decode := func(resp *http.Response, wantCode int) RunStatus {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("HTTP %d, want %d: %s", resp.StatusCode, wantCode, b)
		}
		var st RunStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := decode(do("POST", "/v1/ingests", []byte(`{"system":"hopp","window_records":16}`)), http.StatusAccepted)
	if st.Ingest == nil || st.Ingest.Phase != IngestStreaming {
		t.Fatalf("open = %+v", st)
	}
	id := st.ID

	trace := encodeTrace(48, 0, nil)
	chunk := trace[:16*hmtt.RecordSize]

	// Out-of-order ahead of the HWM: 409.
	resp := do("PUT", "/v1/ingests/"+id+"/chunks/5", chunk)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("out-of-order PUT: HTTP %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Oversize (beyond ring capacity): 413.
	resp = do("PUT", "/v1/ingests/"+id+"/chunks/0", encodeTrace(64, 0, nil))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize PUT: HTTP %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()

	// Injected ring-full: 429 with a Retry-After hint, then the same
	// request succeeds.
	inj.Enable(faults.SiteIngestRingFull, faults.OnHits(1))
	resp = do("PUT", "/v1/ingests/"+id+"/chunks/0", chunk)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("paused PUT: HTTP %d Retry-After=%q, want 429 + hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()
	decode(do("PUT", "/v1/ingests/"+id+"/chunks/0", chunk), http.StatusOK)
	decode(do("PUT", "/v1/ingests/"+id+"/chunks/1", trace[16*hmtt.RecordSize:32*hmtt.RecordSize]), http.StatusOK)
	// Idempotent duplicate: same 200.
	decode(do("PUT", "/v1/ingests/"+id+"/chunks/1", trace[16*hmtt.RecordSize:32*hmtt.RecordSize]), http.StatusOK)

	// Follow-mode metrics stream in the background while the tail
	// uploads land.
	var followLines []IngestWindow
	var followErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := client.Get(srv.URL + "/v1/ingests/" + id + "/metrics?follow=true")
		if err != nil {
			followErr = err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var w IngestWindow
			if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
				followErr = err
				return
			}
			followLines = append(followLines, w)
		}
		followErr = sc.Err()
	}()

	decode(do("PUT", "/v1/ingests/"+id+"/chunks/2", trace[32*hmtt.RecordSize:]), http.StatusOK)
	decode(do("POST", "/v1/ingests/"+id+"/close", nil), http.StatusOK)
	wg.Wait()
	if followErr != nil {
		t.Fatalf("follow stream: %v", followErr)
	}
	if len(followLines) != 3 {
		t.Fatalf("follow streamed %d windows, want 3", len(followLines))
	}

	// Snapshot form after the fact: identical windows.
	resp = do("GET", "/v1/ingests/"+id+"/metrics", nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := strings.Count(strings.TrimSpace(string(body)), "\n") + 1; n != 3 {
		t.Fatalf("snapshot NDJSON has %d lines, want 3:\n%s", n, body)
	}

	// PUT after close: 409. Cancel after terminal: 409. Kind mismatch:
	// 404 on both the status and metrics surfaces.
	resp = do("PUT", "/v1/ingests/"+id+"/chunks/3", chunk)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("PUT after close: HTTP %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	resp = do("DELETE", "/v1/ingests/"+id, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE after done: HTTP %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	sim := decode(do("POST", "/v1/runs", []byte(`{"workload":"sequential","system":"fastswap","quick":true}`)), http.StatusAccepted)
	for _, path := range []string{"/v1/ingests/" + sim.ID, "/v1/ingests/" + sim.ID + "/metrics", "/v1/ingests/r999999"} {
		resp := do("GET", path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// DELETE on a live session over HTTP cancels it.
func TestIngestHTTPCancel(t *testing.T) {
	e := newTestEngine(t, ingestOpts())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	st, err := e.OpenIngest(IngestRequest{})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/ingests/"+st.ID, nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d, want 200", resp.StatusCode)
	}
	got := waitIngest(t, e, st.ID, func(s RunStatus) bool { return s.State.Terminal() })
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
}

// A torn request body at the HTTP layer (SiteHTTPBodyRead) surfaces as
// a 400 chunk-read error and leaves the session resumable.
func TestIngestHTTPBodyReadTear(t *testing.T) {
	inj := faults.New(1)
	opts := ingestOpts()
	opts.Faults = inj
	e := newTestEngine(t, opts)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	st, err := e.OpenIngest(IngestRequest{WindowRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	trace := encodeTrace(16, 0, nil)
	inj.Enable(faults.SiteHTTPBodyRead, faults.Always())
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/ingests/"+st.ID+"/chunks/0", bytes.NewReader(trace))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn body PUT: HTTP %d, want 400", resp.StatusCode)
	}
	inj.Disable(faults.SiteHTTPBodyRead)
	if _, err := e.IngestChunk(context.Background(), st.ID, 0, bytes.NewReader(trace)); err != nil {
		t.Fatalf("retry after torn body: %v", err)
	}
	closeAndWaitDone(t, e, st.ID)
}

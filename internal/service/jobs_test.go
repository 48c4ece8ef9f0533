package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"hopp/internal/experiments"
	"hopp/internal/hmtt"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

// jsonDecode drains a response body into v and closes it.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// expReq is a distinct-seed experiment request (each seed is its own
// cache key, so every call is a real job unless stated otherwise).
func expReq(seed int64) ExperimentRequest {
	return ExperimentRequest{Experiment: "fig9", Seed: seed, Quick: true}
}

// fakeTables is a runExp stub returning a fixed render instantly. It
// ticks Progress once so tests see the gauge move (and replay tests
// catch a progress count dropped on the journal round-trip).
func fakeTables(ctx context.Context, exp experiments.Experiment, opts experiments.Options) ([]experiments.Table, error) {
	if opts.Progress != nil {
		opts.Progress()
	}
	return []experiments.Table{{Title: "fake " + exp.ID, Header: []string{"x"}, Rows: [][]string{{"1"}}}}, nil
}

// Experiment submissions are jobs: queued → running → done through the
// same registry sim runs use, polled by the same ID, with the rendered
// text as their Output.
func TestExperimentJobLifecycle(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	e.runExp = fakeTables
	st, err := e.SubmitExperiment(expReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindExperiment || st.Experiment != "fig9" {
		t.Fatalf("submitted job = %+v, want kind=experiment id=fig9", st)
	}
	final := waitDone(t, e, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if !strings.Contains(final.Output, "fake fig9") {
		t.Fatalf("Output = %q, want rendered table", final.Output)
	}
	if len(final.Metrics) != 0 {
		t.Fatal("experiment job carries sim Metrics")
	}
	kc := e.Metrics().Jobs[KindExperiment]
	if kc.Submitted != 1 || kc.Completed != 1 {
		t.Fatalf("experiment counters = %+v, want submitted/completed 1", kc)
	}
	// Both kinds list through the one registry.
	runs := e.Runs()
	if len(runs) != 1 || runs[0].Kind != KindExperiment {
		t.Fatalf("Runs() = %+v, want the one experiment job", runs)
	}
}

// A repeated experiment submission is a cache hit born done — same
// bytes, no second execution (the unified analogue of the sim-run cache
// contract).
func TestExperimentJobCacheHit(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	var calls int
	e.runExp = func(ctx context.Context, exp experiments.Experiment, opts experiments.Options) ([]experiments.Table, error) {
		calls++
		return fakeTables(ctx, exp, opts)
	}
	first, err := e.SubmitExperiment(expReq(1))
	if err != nil {
		t.Fatal(err)
	}
	firstDone := waitDone(t, e, first.ID)
	second, err := e.SubmitExperiment(expReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("repeat = {cached:%v state:%s}, want cached+done", second.Cached, second.State)
	}
	if second.Output != firstDone.Output || second.Output == "" {
		t.Fatal("cache hit returned different output than the job that populated it")
	}
	if calls != 1 {
		t.Fatalf("experiment executed %d times, want 1", calls)
	}
}

// Experiment submissions hit the same queue bound as sim runs: over
// -max-queue they get ErrOverloaded (HTTP 429) and — the PR 2 invariant
// extended to the new kind — leave no registry entry and no cache
// pollution behind.
func TestExperimentJobRejectedUnderMaxQueueLeavesNoTrace(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, MaxQueue: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return sim.Metrics{System: "test"}, nil
		case <-ctx.Done():
			return sim.Metrics{}, ctx.Err()
		}
	}
	var expCalls int
	e.runExp = func(ctx context.Context, exp experiments.Experiment, opts experiments.Options) ([]experiments.Table, error) {
		expCalls++
		return fakeTables(ctx, exp, opts)
	}
	// One sim run holds the worker, one fills the queue.
	if _, err := e.Submit(seedReq(1)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := e.Submit(seedReq(2)); err != nil {
		t.Fatal(err)
	}
	_, err := e.SubmitExperiment(expReq(7))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-limit experiment submit = %v, want ErrOverloaded", err)
	}
	if got := len(e.Runs()); got != 2 {
		t.Fatalf("rejected experiment left a registry entry: %d jobs, want 2", got)
	}
	m := e.Metrics()
	kc := m.Jobs[KindExperiment]
	if kc.Rejected != 1 || kc.Submitted != 0 {
		t.Fatalf("experiment counters = %+v, want rejected=1 submitted=0", kc)
	}
	cacheLen := m.CacheSize
	close(release)

	// No cache pollution: once capacity frees up, the same request must
	// execute for real, not come back "cached" from the rejected attempt.
	waitCounters(t, e, func(m MetricsSnapshot) bool { return m.Jobs[KindSim].Completed == 2 })
	if got := e.Metrics().CacheSize; got < cacheLen {
		t.Fatalf("cache shrank across rejection: %d → %d", cacheLen, got)
	}
	st, err := e.SubmitExperiment(expReq(7))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached {
		t.Fatal("post-rejection resubmit reported cached: rejected submission polluted the cache")
	}
	if final := waitDone(t, e, st.ID); final.State != StateDone {
		t.Fatalf("resubmitted experiment = %s, want done", final.State)
	}
	if expCalls != 1 {
		t.Fatalf("experiment executed %d times, want exactly 1 (the admitted resubmission)", expCalls)
	}
}

// Experiment jobs are capped by the same -run-timeout: a pathological
// regeneration lands in StateFailed with the timeout error and moves the
// experiment kind's timed_out counter.
func TestExperimentJobTimesOutUnderRunTimeout(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, RunTimeout: 30 * time.Millisecond})
	e.runExp = func(ctx context.Context, exp experiments.Experiment, opts experiments.Options) ([]experiments.Table, error) {
		<-ctx.Done() // only the deadline frees it
		return nil, ctx.Err()
	}
	st, err := e.SubmitExperiment(expReq(1))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, e, st.ID)
	if final.State != StateFailed {
		t.Fatalf("timed-out experiment state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, ErrRunTimeout.Error()) {
		t.Fatalf("error = %q, want it to mention %q", final.Error, ErrRunTimeout)
	}
	kc := e.Metrics().Jobs[KindExperiment]
	if kc.TimedOut != 1 || kc.Failed != 1 {
		t.Fatalf("experiment timeout counters = %+v, want timed_out/failed 1/1", kc)
	}
}

// Terminal experiment jobs age out of the registry under -retain-runs
// exactly like sim runs: the evicted ID answers ErrUnknownRun (404).
func TestExperimentJobEvictedPastRetention(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, RetainRuns: 1})
	e.runExp = fakeTables
	first, err := e.SubmitExperiment(expReq(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, first.ID)
	second, err := e.SubmitExperiment(expReq(2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, second.ID) // 1 worker: first finished before this, so it's evicted
	if _, err := e.Status(first.ID); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("Status(evicted experiment) = %v, want ErrUnknownRun", err)
	}
	m := e.Metrics()
	if m.RegistrySize != 1 || m.RegistryEvictions != 1 {
		t.Fatalf("registry = size %d evictions %d, want 1/1", m.RegistrySize, m.RegistryEvictions)
	}
}

// The job form over HTTP: POST /v1/experiments/{id}/runs returns 202
// with a job ID pollable at GET /v1/runs/{id}, and /metrics reports the
// work under kind "experiment".
func TestHTTPExperimentJobForm(t *testing.T) {
	e, srv := newTestServer(t, Options{Workers: 1})
	e.runExp = fakeTables
	resp, err := http.Post(srv.URL+"/v1/experiments/fig9/runs?seed=3&quick=true", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st RunStatus
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job-form submit = %d, want 202", resp.StatusCode)
	}
	if st.Kind != KindExperiment || st.Experiment != "fig9" || st.Seed != 3 || !st.Quick {
		t.Fatalf("job-form status = %+v", st)
	}
	final := pollRun(t, srv.URL, st.ID)
	if final.State != StateDone || !strings.Contains(final.Output, "fake fig9") {
		t.Fatalf("final = state %s output %q", final.State, final.Output)
	}
	var m MetricsSnapshot
	getJSON(t, srv.URL+"/metrics", &m)
	kc, ok := m.Jobs[KindExperiment]
	if !ok {
		t.Fatalf(`/metrics jobs missing kind "experiment": %+v`, m.Jobs)
	}
	if kc.Submitted != 1 || kc.Completed != 1 {
		t.Fatalf("experiment kind counters over HTTP = %+v", kc)
	}
	if _, ok := m.Jobs[KindSim]; !ok {
		t.Fatalf(`/metrics jobs missing kind "sim": %+v`, m.Jobs)
	}
	// Unknown experiment on the job form: 404, nothing admitted.
	resp, err = http.Post(srv.URL+"/v1/experiments/nope/runs", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment job form = %d, want 404", resp.StatusCode)
	}
}

// HTTP surface of the unified admission control: the job form answers
// 429 + Retry-After when the queue is at its bound.
func TestHTTPExperimentJobForm429(t *testing.T) {
	e, srv := newTestServer(t, Options{Workers: 1, MaxQueue: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.runSim = func(ctx context.Context, req RunRequest, _ *workload.Base) (sim.Metrics, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return sim.Metrics{System: "test"}, nil
		case <-ctx.Done():
			return sim.Metrics{}, ctx.Err()
		}
	}
	defer close(release)
	if _, err := e.Submit(seedReq(1)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := e.Submit(seedReq(2)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/experiments/fig9/runs", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit job form = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

// An experiment job's Output is byte-identical to a direct in-process
// render of the same experiment at the same (seed, quick).
func TestExperimentJobOutputByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	const id, seed = "fig2", int64(1)
	exp, ok := experiments.ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	tables, err := exp.Run(context.Background(), experiments.Options{Seed: seed, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, tab := range tables {
		tab.Fprint(&want)
	}

	e := newTestEngine(t, Options{Workers: 1})
	st, err := e.SubmitExperiment(ExperimentRequest{Experiment: id, Seed: seed, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, e, st.ID); got.State != StateDone || got.Output != want.String() {
		t.Fatalf("job output diverged from direct render (state %s):\n--- job\n%s\n--- direct\n%s", got.State, got.Output, want.String())
	}
}

// Terminal jobs of both kinds land in the journal the moment they
// finish — not at eviction — and replaying the JSONL stream
// reconstructs what ran: IDs, kinds, states, and payloads. Eviction
// afterwards is pure memory management; a crash between finish and
// eviction loses nothing.
func TestJournalReplayAfterEviction(t *testing.T) {
	var buf syncBuffer
	e := newTestEngine(t, Options{Workers: 1, RetainRuns: 1, Journal: NewJournal(&buf)})
	e.runSim = instantSim
	e.runExp = fakeTables

	simSt, err := e.Submit(seedReq(5))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, simSt.ID)
	expSt, err := e.SubmitExperiment(expReq(6))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, expSt.ID) // evicts the sim job
	last, err := e.Submit(seedReq(7))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, last.ID) // evicts the experiment job

	waitCounters(t, e, func(m MetricsSnapshot) bool { return m.JournalWrites == 3 })
	entries, err := ReadJournal(buf.reader())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("journal has %d entries, want 3 (every terminal job)", len(entries))
	}
	se, xe := entries[0], entries[1]
	if se.ID != simSt.ID || se.Kind != KindSim || se.State != StateDone {
		t.Fatalf("first journal entry = %+v, want done sim job %s", se, simSt.ID)
	}
	if se.Workload != "sequential" || se.System != "fastswap" || se.Seed != 5 {
		t.Fatalf("sim entry payload = %+v", se)
	}
	if xe.ID != expSt.ID || xe.Kind != KindExperiment || xe.State != StateDone {
		t.Fatalf("second journal entry = %+v, want done experiment job %s", xe, expSt.ID)
	}
	if xe.Experiment != "fig9" || xe.Seed != 6 || !xe.Quick {
		t.Fatalf("experiment entry payload = %+v", xe)
	}
	if se.SubmittedUnixNS == 0 || se.FinishedUnixNS < se.SubmittedUnixNS {
		t.Fatalf("sim entry timestamps = %d/%d", se.SubmittedUnixNS, se.FinishedUnixNS)
	}
	if len(se.Metrics) == 0 {
		t.Fatal("done sim entry carries no Metrics bytes; replay could not warm the cache")
	}
	if xe.Output == "" {
		t.Fatal("done experiment entry carries no Output; replay could not warm the cache")
	}
	if m := e.Metrics(); m.JournalWriteErrors != 0 {
		t.Fatalf("journal_write_errors = %d, want 0", m.JournalWriteErrors)
	}
}

// The on-disk journal round-trips through OpenJournal/ReadJournal, and
// reopening appends instead of truncating.
func TestJournalFileAppendsAcrossReopen(t *testing.T) {
	path := t.TempDir() + "/runs.jsonl"
	for i := 0; i < 2; i++ {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		err = j.Append(JournalEntry{ID: jobID(i + 1), Kind: KindSim, State: StateDone, JobSpec: JobSpec{Seed: int64(i)}})
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].ID != "r000001" || entries[1].ID != "r000002" {
		t.Fatalf("replayed %+v, want two appended entries", entries)
	}
}

// ReadJournal accepts every line ReplayJournal does. One 1.5 MB chunk
// into 16-record windows journals a chunk entry of about 2.5 MB — past
// a 1 MiB line bound, inside the 16 MiB one replay has always used.
func TestReadJournalReadsWhatReplayAccepts(t *testing.T) {
	var buf syncBuffer
	opts := ingestOpts()
	opts.IngestRingRecords = 1 << 18
	opts.Journal = NewJournal(&buf)
	e := newTestEngine(t, opts)
	st := openIngestT(t, e, 16)
	putAll(t, e, st.ID, encodeTrace(250000, 0, nil), 250000*hmtt.RecordSize)
	closeAndWaitDone(t, e, st.ID)

	entries, err := ReadJournal(buf.reader())
	if err != nil || len(entries) != 3 {
		t.Fatalf("ReadJournal = %d entries, %v; want 3 (open, chunk, terminal)", len(entries), err)
	}
	if entries[1].Ingest == nil || len(entries[1].Ingest.Windows) != 250000/16 {
		t.Fatalf("chunk entry lost its windows: %+v", entries[1].Ingest)
	}
	stats, err := newTestEngine(t, ingestOpts()).ReplayJournal(buf.reader())
	if err != nil || stats.Recovered != 3 {
		t.Fatalf("ReplayJournal = %+v, %v; want 3 recovered", stats, err)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the journal writes from a
// worker goroutine while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) reader() *bytes.Reader {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.NewReader(append([]byte(nil), b.buf.Bytes()...))
}

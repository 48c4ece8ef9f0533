package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The kill-and-restart acceptance test: run jobs of both kinds against
// a journaling daemon, record the exact GET /v1/runs/{id} bytes, tear
// the daemon down, bring up a fresh engine with -journal-replay
// semantics, and require the replayed daemon to serve byte-identical
// responses — registry and result cache rebuilt entirely from the
// journal, with zero work re-executed.
func TestJournalReplayRestartByteIdentical(t *testing.T) {
	path := t.TempDir() + "/runs.jsonl"
	jnl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(Options{Workers: 1, Journal: jnl})
	e1.runSim = instantSim
	e1.runExp = fakeTables
	srv1 := httptest.NewServer(NewHandler(e1))

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		st, code := postRun(t, srv1.URL, seedReq(seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d = %d, want 202", seed, code)
		}
		ids = append(ids, st.ID)
	}
	expSt, err := e1.SubmitExperiment(expReq(4))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, expSt.ID)
	for _, id := range ids {
		pollRun(t, srv1.URL, id)
	}
	want := make(map[string][]byte, len(ids))
	for _, id := range ids {
		want[id] = getBody(t, srv1.URL+"/v1/runs/"+id)
	}

	// Kill: drain the engine, close the listener and the journal file.
	srv1.Close()
	e1.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a brand-new engine whose only knowledge is the journal.
	e2 := newTestEngine(t, Options{Workers: 1})
	e2.runSim = instantSim
	stats, err := e2.ReplayJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recovered != 4 || stats.Skipped != 0 || stats.Malformed != 0 {
		t.Fatalf("replay stats = %+v, want 4 recovered", stats)
	}
	srv2 := httptest.NewServer(NewHandler(e2))
	defer srv2.Close()

	for _, id := range ids {
		got := getBody(t, srv2.URL+"/v1/runs/"+id)
		if string(got) != string(want[id]) {
			t.Fatalf("replayed response for %s diverged:\n--- before restart\n%s--- after replay\n%s", id, want[id], got)
		}
	}

	m := e2.Metrics()
	if m.JournalReplayed != 4 {
		t.Fatalf("journal_replayed = %d, want 4", m.JournalReplayed)
	}
	if kc := m.Jobs[KindSim]; kc.Started != 0 {
		t.Fatalf("replay started %d sim jobs, want 0 — recovery must not re-execute", kc.Started)
	}

	// The cache was rebuilt from journaled result bytes: resubmitting a
	// recovered request is a hit, born done.
	st, code := postRun(t, srv2.URL, seedReq(2))
	if code != http.StatusOK || !st.Cached || st.State != StateDone {
		t.Fatalf("resubmit after replay = %d %+v, want 200 cached done", code, st)
	}
	// And fresh work gets an ID past the recovered history, not a reused one.
	fresh, err := e2.Submit(seedReq(99))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := jobIDNum(fresh.ID); n != 6 {
		t.Fatalf("first post-replay ID = %s, want r000006 (4 recovered + 1 cache-hit resubmit + 1)", fresh.ID)
	}
}

// A torn final line — the signature of a crash mid-append — is counted
// as malformed and skipped; every whole line before it is recovered.
func TestJournalReplayToleratesTornLine(t *testing.T) {
	e1 := newTestEngine(t, Options{Workers: 1})
	e1.runSim = instantSim
	var buf syncBuffer
	e1.SetJournal(NewJournal(&buf))
	for seed := int64(1); seed <= 2; seed++ {
		st, err := e1.Submit(seedReq(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, e1, st.ID)
	}
	waitCounters(t, e1, func(m MetricsSnapshot) bool { return m.JournalWrites == 2 })

	data, err := io.ReadAll(buf.reader())
	if err != nil {
		t.Fatal(err)
	}
	torn := string(data) + `{"id":"r000003","kind":"sim","sta` // crash mid-write

	e2 := newTestEngine(t, Options{Workers: 1})
	stats, err := e2.ReplayJournal(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn journal must not fail replay: %v", err)
	}
	if stats.Recovered != 2 || stats.Malformed != 1 {
		t.Fatalf("stats = %+v, want 2 recovered, 1 malformed", stats)
	}
	if _, err := e2.Status("r000002"); err != nil {
		t.Fatalf("recovered job missing: %v", err)
	}
	if _, err := e2.Status("r000003"); err == nil {
		t.Fatal("torn entry resurrected as a job")
	}
}

// Entries this build cannot restore — catalog drift, bad IDs,
// non-terminal states, unknown kinds — are skipped, counted, and do
// not poison the rest of the replay.
func TestJournalReplaySkipsUnrestorable(t *testing.T) {
	lines := strings.Join([]string{
		`{"id":"r000001","kind":"sim","state":"done","workload":"sequential","system":"fastswap","frac":0.25,"seed":1,"quick":true,"metrics":{"system":"test"}}`,
		`{"id":"r000002","kind":"sim","state":"done","workload":"no-such-workload","system":"fastswap","frac":0.25,"seed":2}`,
		`{"id":"bogus","kind":"sim","state":"done","workload":"sequential","system":"fastswap","frac":0.25,"seed":3}`,
		`{"id":"r000004","kind":"sim","state":"running","workload":"sequential","system":"fastswap","frac":0.25,"seed":4}`,
		`{"id":"r000005","kind":"warp","state":"done","seed":5}`,
		`not json at all`,
	}, "\n")
	e := newTestEngine(t, Options{Workers: 1})
	stats, err := e.ReplayJournal(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recovered != 1 || stats.Skipped != 4 || stats.Malformed != 1 {
		t.Fatalf("stats = %+v, want 1 recovered, 4 skipped, 1 malformed", stats)
	}
	st, err := e.Status("r000001")
	if err != nil || st.State != StateDone || len(st.Metrics) == 0 {
		t.Fatalf("recovered job = %+v (%v), want done with metrics", st, err)
	}
}

// An ingest session's terminal line ends its replay. A real engine
// writes nothing for a session after that line, so later lines come
// from a damaged journal: they are skipped and change nothing, neither
// the phase nor the durable mark nor the counts.
func TestIngestReplayIgnoresLinesAfterTerminal(t *testing.T) {
	journal := strings.Join([]string{
		`{"id":"r000001","kind":"ingest","state":"done","workload":"trace","system":"hopp","frac":0.5,"ingest":{"phase":"done","window_records":16,"chunks_acked":2,"records":7}}`,
		`{"id":"r000001","kind":"ingest","state":"running","workload":"trace","system":"hopp","frac":0.5,"ingest":{"phase":"streaming","window_records":16,"chunks_acked":5,"records":40}}`,
	}, "\n")
	e := newTestEngine(t, ingestOpts())
	stats, err := e.ReplayJournal(strings.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Status("r000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Ingest == nil || st.Ingest.Phase != IngestDone || st.Ingest.ChunksDurable != 2 || st.Ingest.Records != 7 {
		t.Fatalf("status = %+v (ingest %+v), want done in phase done with 2 durable chunks and 7 records", st, st.Ingest)
	}
	if stats.Recovered != 1 || stats.Skipped != 1 {
		t.Fatalf("stats = %+v, want 1 recovered, 1 skipped", stats)
	}
}

// A missing journal file is a clean first boot.
func TestReplayJournalFileMissing(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	stats, err := e.ReplayJournalFile(t.TempDir() + "/never-written.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ReplayStats{}) {
		t.Fatalf("stats = %+v, want zero", stats)
	}
	// But a real read error still reports — it is not a torn line.
	if _, err := e.ReplayJournal(failingReader{}); err == nil {
		t.Fatal("read error swallowed")
	}
}

// failingReader errors immediately — a truncated disk, not a torn line.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// getBody fetches a URL and returns the raw response bytes.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

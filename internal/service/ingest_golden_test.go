package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"hopp/internal/tracepipe"
	"hopp/internal/workload"
)

// ladderTrace is `tracegen -workload ladder -max 20000 -seed 1`: 20,480
// READ records with a contiguous sequence.
func ladderTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tracepipe.Capture(&buf, workload.NewLadder(2048, 3), 1, 20000); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The window stream of a read-only trace is pinned byte for byte:
// testdata holds the NDJSON each system produced before ingest and
// traceanalyze shared one pipeline, uploaded in 1000-byte chunks that
// tear records across boundaries.
func TestIngestWindowsMatchGoldens(t *testing.T) {
	trace := ladderTrace(t)
	for _, sys := range []string{"hopp", "hopp-markov", "spp"} {
		t.Run(sys, func(t *testing.T) {
			e := newTestEngine(t, ingestOpts())
			st, err := e.OpenIngest(IngestRequest{System: sys, WindowRecords: 2048})
			if err != nil {
				t.Fatal(err)
			}
			putAll(t, e, st.ID, trace, 1000)
			closeAndWaitDone(t, e, st.ID)
			srv := httptest.NewServer(NewHandler(e))
			defer srv.Close()
			resp, err := http.Get(srv.URL + "/v1/ingests/" + st.ID + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile("testdata/ingest_ladder_" + sys + ".ndjson")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("windows diverged from golden:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// A mid-stream journal written by an earlier build still replays: the
// session resumes paused at its durable mark with the journaled totals,
// and its finished windows are byte-identical to the ones served before
// the restart.
func TestIngestReplaysEarlierJournal(t *testing.T) {
	f, err := os.Open("testdata/ingest_journal_earlier.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := newTestEngine(t, ingestOpts())
	stats, err := e.ReplayJournal(f)
	if err != nil || stats.Recovered != 11 || stats.Skipped != 0 || stats.Malformed != 0 {
		t.Fatalf("replay = %+v, %v", stats, err)
	}
	st, err := e.IngestStatusByID("r000001")
	if err != nil {
		t.Fatal(err)
	}
	in := st.Ingest
	if st.State != StateRunning || in.Phase != IngestPaused || !in.Resumed || in.ChunksDurable != 10 ||
		in.Records != 1666 || in.Reads != 1666 || in.HotPages != 26 || in.Prefetches != 10 ||
		in.PrefetchHits != 7 || in.Windows != 3 || in.PartialTail != 4 {
		t.Fatalf("replayed status = %+v", in)
	}
	wins := windowsOf(t, e, "r000001")
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	for i := range wins {
		if err := enc.Encode(&wins[i]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/ingest_journal_earlier_windows.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("replayed windows:\n got %s\nwant %s", got.Bytes(), want)
	}

	// The client rewinds to the durable mark and finishes the stream;
	// framing continues exactly where the journal left it.
	trace := ladderTrace(t)
	for n := 10; n*1000 < len(trace); n++ {
		end := min((n+1)*1000, len(trace))
		if _, err := e.IngestChunk(context.Background(), "r000001", n, bytes.NewReader(trace[n*1000:end])); err != nil {
			t.Fatalf("chunk %d: %v", n, err)
		}
	}
	all := closeAndWaitDone(t, e, "r000001")
	if len(all) != 40 {
		t.Fatalf("%d windows after resume, want 40", len(all))
	}
	for i, w := range all {
		if w.Index != i || w.Records != 512 || w.Reads != 512 || w.LossRecords != 0 {
			t.Fatalf("window %d framing = %+v", i, w)
		}
		if i > 0 && w.StartNS != all[i-1].EndNS {
			t.Fatalf("window %d starts at %d, previous ended at %d", i, w.StartNS, all[i-1].EndNS)
		}
	}
}

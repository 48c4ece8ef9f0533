package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// replayCorpusDir holds FuzzReplayJournal's committed seed corpus.
// Regenerate it with
//
//	go test ./internal/service -run TestReplayJournalSeedCorpus -update
const replayCorpusDir = "testdata/fuzz/FuzzReplayJournal"

// FuzzReplayJournal replays arbitrary journals, seeded with one a real
// engine wrote (a done sim, a sweep parent cut off mid-flight, an
// ingest session's per-chunk entries), its torn and corrupted copies,
// and two hand-written damaged ingest journals (a final phase in a live
// state; a live line after the session's terminal one). Whatever the
// bytes:
//   - replay does not panic, and every non-empty line is counted once
//     as recovered, skipped or malformed;
//   - a line that is not valid JSON counts as malformed;
//   - after Shutdown, every job Runs lists is terminal (no zombie).
func FuzzReplayJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, journal []byte) {
		lines, invalid := 0, 0
		err := eachJournalLine(bytes.NewReader(journal), func(line []byte) error {
			lines++
			if !json.Valid(line) {
				invalid++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		e := NewEngine(ingestOpts())
		stats, err := e.ReplayJournal(bytes.NewReader(journal))
		if err != nil {
			t.Fatalf("replay of an in-memory journal failed: %v", err)
		}
		if n := stats.Recovered + stats.Skipped + stats.Malformed; n != lines {
			t.Errorf("stats %+v account for %d lines, journal has %d", stats, n, lines)
		}
		if stats.Malformed < invalid {
			t.Errorf("stats %+v count %d malformed, journal has %d lines that are not JSON", stats, stats.Malformed, invalid)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("shutdown after replay: %v", err)
		}
		for _, r := range e.Runs() {
			if !r.State.Terminal() {
				t.Errorf("zombie after replay and shutdown: %s %s %s", r.ID, r.Kind, r.State)
			}
		}
	})
}

// TestReplayJournalSeedCorpus checks that the committed seed journal
// still holds what FuzzReplayJournal's seeds promise, and that this
// build replays every line of it. With -update it first rewrites the
// corpus from a journal a real engine writes now.
func TestReplayJournalSeedCorpus(t *testing.T) {
	if *update {
		writeReplayCorpus(t, engineJournal(t))
	}
	raw, err := os.ReadFile(filepath.Join(replayCorpusDir, "engine_journal"))
	if err != nil {
		t.Fatal(err)
	}
	journal := parseCorpusBytes(t, raw)

	var sims, sweepsMidFlight, ingestLines, lines int
	err = eachJournalLine(bytes.NewReader(journal), func(line []byte) error {
		lines++
		var entry JournalEntry
		if err := json.Unmarshal(line, &entry); err != nil {
			return err
		}
		switch {
		case entry.Kind == KindSim && entry.State == StateDone && entry.Parent == "":
			sims++
		case entry.Kind == KindSweep && !entry.State.Terminal():
			sweepsMidFlight++
		case entry.Kind == KindIngest && !entry.State.Terminal():
			ingestLines++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sims == 0 || sweepsMidFlight == 0 || ingestLines < 2 {
		t.Fatalf("seed journal holds %d done sims, %d mid-flight sweep parents, %d live ingest entries; want each, and per-chunk ingest entries", sims, sweepsMidFlight, ingestLines)
	}

	e := newTestEngine(t, ingestOpts())
	stats, err := e.ReplayJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recovered != lines {
		t.Fatalf("replay stats %+v, want all %d lines recovered", stats, lines)
	}
}

// engineJournal runs a journaling engine until its journal holds a done
// sim, a sweep whose parent is still in flight (two children done, two
// parked), and an ingest session with eight durable chunks (one
// finished window), and returns a snapshot of the journal at that point.
func engineJournal(t *testing.T) []byte {
	var buf syncBuffer
	opts := ingestOpts()
	opts.Workers = 2
	opts.Journal = NewJournal(&buf)
	e := newTestEngine(t, opts)
	parkNoPrefetch(t, e)

	// Seed 2 keeps the sim apart from the sweep's seed-1 points.
	st, err := e.Submit(seedReq(2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, st.ID)
	sw, err := e.SubmitSweep(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sw.Sweep.Children[:2] {
		waitDone(t, e, id)
	}
	// The sim, the sweep's submission entry and its two done children.
	waitCounters(t, e, func(m MetricsSnapshot) bool { return m.JournalWrites == 4 })

	in := openIngestT(t, e, 16)
	trace := encodeTrace(64, 0, nil)
	const chunkBytes, chunks = 23, 8
	for i := 0; i < chunks; i++ {
		if _, err := e.IngestChunk(context.Background(), in.ID, i, bytes.NewReader(trace[i*chunkBytes:(i+1)*chunkBytes])); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	// A chunk is durable once its journal line is written.
	waitIngest(t, e, in.ID, func(s RunStatus) bool { return s.Ingest.ChunksDurable == chunks })
	data, err := io.ReadAll(buf.reader())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeReplayCorpus writes the seed journal and two damaged copies: one
// torn mid-way through its last line, as a crash mid-append leaves it,
// and one whose second line lost its second half.
func writeReplayCorpus(t *testing.T, journal []byte) {
	t.Helper()
	lines := strings.SplitAfter(strings.TrimSuffix(string(journal), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("seed journal has %d lines", len(lines))
	}
	last := lines[len(lines)-1]
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	second := lines[1]
	corrupt := lines[0] + second[:len(second)/2] + "\n" + strings.Join(lines[2:], "")
	if err := os.MkdirAll(replayCorpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"engine_journal": string(journal),
		"torn_last_line": torn,
		"corrupt_line":   corrupt,
	} {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(data))
		if err := os.WriteFile(filepath.Join(replayCorpusDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// parseCorpusBytes decodes a one-value []byte fuzz corpus file.
func parseCorpusBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	s := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
	s, ok := strings.CutPrefix(s, "[]byte(")
	if !ok || !strings.HasSuffix(s, ")") {
		t.Fatalf("corpus file is not one []byte value: %.40q", raw)
	}
	out, err := strconv.Unquote(strings.TrimSuffix(s, ")"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(out)
}

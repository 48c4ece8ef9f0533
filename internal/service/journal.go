package service

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"

	"hopp/internal/faults"
)

// JournalEntry is one line of the append-only run journal: the terminal
// snapshot of a job, written the moment it reaches a terminal state.
// The registry is a bounded window (evicted IDs answer 404); the
// journal is the on-disk record behind that window — and, since it now
// carries the serialized result, the recovery source `-journal-replay`
// repopulates the registry and its key index from after a restart.
// Entries without result fields (the pre-replay format, or
// failed/cancelled jobs) still replay as registry entries; they just
// cannot serve result hits.
type JournalEntry struct {
	ID    string   `json:"id"`
	Kind  JobKind  `json:"kind"`
	State JobState `json:"state"`
	// JobSpec is the request echo RunStatus carries too, progress gauge
	// included, so a replayed job's status is byte-identical to the
	// pre-restart response.
	JobSpec
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	WallNS int64  `json:"wall_ns,omitempty"`
	SimNS  int64  `json:"sim_ns,omitempty"`

	SubmittedUnixNS int64 `json:"submitted_unix_ns"`
	FinishedUnixNS  int64 `json:"finished_unix_ns"`

	// Metrics carries a done sim job's serialized sim.Metrics verbatim;
	// Output a done experiment job's rendered table text. These are what
	// make a journal line replayable: the bytes land back in the result
	// cache, so a restarted daemon serves the identical response.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	Output  string          `json:"output,omitempty"`

	// Parent ties a sweep child's entry back to its parent sweep.
	Parent string `json:"parent,omitempty"`
	// Sweep carries a sweep parent's grid and aggregate. Parents are the
	// one kind journaled twice: once at submission (non-terminal state,
	// config and child IDs only) so a crash mid-sweep replays the parent
	// as failed instead of losing it, and once at the terminal
	// transition with the frozen aggregate counts.
	Sweep *SweepStatus `json:"sweep,omitempty"`
	// Ingest carries an ingest session's resumable snapshot. Ingest
	// sessions journal many times: once at open (non-terminal), once per
	// processed chunk (the crash-safe high-water mark, with the windows
	// finished since the previous entry and the exact decoder state), and
	// once at the terminal transition. Replay merges the entries by ID,
	// so a crash mid-stream restores the session resumable at its last
	// journaled chunk — never a zombie.
	Ingest *IngestJournal `json:"ingest,omitempty"`
}

// journalEntry snapshots a job for the journal; the caller holds the
// registry mutex.
func journalEntry(j *Job) JournalEntry {
	e := JournalEntry{
		ID:              j.ID,
		Kind:            j.Kind,
		State:           j.State,
		JobSpec:         j.spec(),
		Cached:          j.cached,
		Error:           j.errMsg,
		WallNS:          j.wallNS,
		SimNS:           j.simNS,
		SubmittedUnixNS: j.submitted.UnixNano(),
		Parent:          j.parentID,
	}
	if !j.finished.IsZero() {
		e.FinishedUnixNS = j.finished.UnixNano()
	}
	e.Metrics, e.Output = j.payload()
	switch {
	case j.ingest != nil:
		e.Ingest = j.ingest.journalSnapshot()
	case j.sweep != nil && j.sweep.final != nil:
		s := *j.sweep.final
		e.Sweep = &s
	case j.sweep != nil:
		// Submission-time entry: grid and fan-out IDs only; counts
		// belong to the terminal entry.
		e.Sweep = j.sweep.grid()
	}
	return e
}

// Journal is an append-only JSONL sink the registry writes every job to
// at its terminal transition (and sweeps and ingest sessions also
// before it). One entry per line, flushed per append: a crash loses at
// most the entry being written, and `tail -f` sees jobs finish as they
// happen. Appends are serialized by an internal mutex, so one Journal
// is safe to share across goroutines.
type Journal struct {
	mu     sync.Mutex
	w      io.Writer
	flush  func() error
	closer io.Closer // nil when the journal doesn't own its sink

	inject *faults.Injector // optional; fails appends on demand in tests
}

// OpenJournal opens (creating if needed) an append-only journal file.
// Appending to an existing file continues the audit trail — the journal
// is append-only by construction, never truncated.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	return &Journal{w: bw, flush: bw.Flush, closer: f}, nil
}

// NewJournal wraps an arbitrary writer (tests, in-memory buffers). The
// caller keeps ownership of w; Close does not close it.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, flush: func() error { return nil }}
}

// SetInjector threads a fault injector into the journal; appends then
// fail with a typed injected error whenever faults.SiteJournalAppend
// fires. A nil injector (the default) is free.
func (j *Journal) SetInjector(in *faults.Injector) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.inject = in
}

// Append writes one entry as a single JSON line.
func (j *Journal) Append(e JournalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.inject.ErrAt(faults.SiteJournalAppend); err != nil {
		return err
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	// Serializing appends under j.mu (and ordering them under reg.mu at
	// the terminal transition) is the journal's contract: it is what
	// makes replay byte-identical. The blocking write under the lock is
	// the design, not an accident.
	//hopplint:lockok append-only journal writes are serialized under j.mu by design; replay depends on this ordering
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return err
	}
	return j.flush()
}

// Close flushes and closes the underlying file, when the journal owns
// one.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.flush(); err != nil {
		return err
	}
	if j.closer != nil {
		//hopplint:lockok shutdown-only file close; the lock orders it after the final flush
		return j.closer.Close()
	}
	return nil
}

// eachJournalLine calls fn on every non-empty journal line, stopping at
// fn's first error. ReplayJournal reads through it, and so does the
// tests' ReadJournal, so whatever one accepts the other does too. Lines carry whole
// serialized results — rendered experiment tables, an ingest chunk's
// finished windows — so the line bound is 16 MiB.
func eachJournalLine(r io.Reader, fn func(line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			if err := fn(line); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

package service

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"time"

	"hopp/internal/hmtt"
)

// ReplayStats reports what a journal replay did: Recovered entries
// landed back in the registry (and, for done jobs with result bytes,
// its key index); Skipped entries were well-formed JSON the current build
// could not restore (bad ID, catalog drift, non-terminal state);
// Malformed lines did not parse — a torn final line from a crash
// mid-append counts here and is tolerated, never fatal.
type ReplayStats struct {
	Recovered int `json:"recovered"`
	Skipped   int `json:"skipped"`
	Malformed int `json:"malformed"`
}

// ReplayJournal reads a JSONL run journal and repopulates the engine
// from its terminal entries: each entry is restored into the registry
// under its original ID (born terminal, served by GET /v1/runs/{id}
// byte-identically to the pre-restart response), and done entries
// carrying result bytes rebuild the registry's key index, so a
// crash/restart cycle serves previously-completed runs as result hits
// instead of recomputing them. Intended at startup, before the engine
// serves traffic; the registry's retention bounds apply to the restored
// window exactly as they do to live jobs.
//
// Replay is resilient by construction: malformed lines (including the
// torn final line a crash mid-append leaves behind) are counted and
// skipped, entries naming workloads/systems/experiments this build's
// catalog no longer has are counted and skipped, and a duplicate ID
// keeps the later entry. The returned error is only ever a read error
// from r itself.
func (e *Engine) ReplayJournal(r io.Reader) (ReplayStats, error) {
	var stats ReplayStats
	now := time.Now()
	// Ingest sessions journal many entries per ID (open, per-chunk
	// high-water mark, terminal); they merge here and resume after the
	// scan, in first-seen order.
	ingests := make(map[string]*Job)
	var ingestOrder []string
	err := eachJournalLine(r, func(line []byte) error {
		var entry JournalEntry
		if err := json.Unmarshal(line, &entry); err != nil {
			stats.Malformed++
			return nil
		}
		if entry.Kind == KindIngest {
			if e.replayIngestEntry(entry, ingests, &ingestOrder) {
				stats.Recovered++
			} else {
				stats.Skipped++
			}
			return nil
		}
		j, ok := e.jobFromEntry(entry)
		if !ok {
			stats.Skipped++
			return nil
		}
		e.reg.mu.Lock()
		e.reg.restoreLocked(j)
		if j.State == StateDone && j.key != "" && len(j.Result) > 0 {
			e.reg.byKey[j.key] = j
		}
		e.ctr.JournalReplayed++
		e.reg.mu.Unlock()
		stats.Recovered++
		return nil
	})
	e.resumeReplayedIngests(ingests, ingestOrder)
	// Trim the restored window to the retention bounds in one pass, with
	// the journal detached: these jobs are already on disk, re-appending
	// them would duplicate the trail.
	e.reg.mu.Lock()
	e.reg.evictLocked(now)
	e.reg.mu.Unlock()
	return stats, err
}

// replayIngestEntry merges one ingest journal line into its session,
// creating the session skeleton on the ID's first line. Non-terminal
// lines advance the durable chunk high-water mark, decoder state, and
// finished windows; a terminal line freezes the job in its final state,
// and the session's later lines are skipped. Reports whether the line
// was usable.
func (e *Engine) replayIngestEntry(entry JournalEntry, ingests map[string]*Job, order *[]string) bool {
	ij := entry.Ingest
	if ij == nil {
		return false
	}
	// The engine journals a final phase only with a final job state. A
	// line where they disagree is corrupt, and a session resumed in a
	// final phase would ignore every interrupt and never end.
	if ij.Phase.Terminal() != entry.State.Terminal() {
		return false
	}
	if _, ok := jobIDNum(entry.ID); !ok {
		return false
	}
	j, known := ingests[entry.ID]
	if known && j.State.Terminal() {
		// The engine writes nothing for a session after its terminal
		// line: a later line is damage, and must not reopen the session.
		return false
	}
	if !known {
		req, err := IngestRequest{
			Workload:      entry.Workload,
			System:        entry.System,
			Frac:          entry.Frac,
			Seed:          entry.Seed,
			WindowRecords: ij.WindowRecords,
		}.Normalize()
		if err != nil {
			return false // catalog drift: the pipeline can't be rebuilt
		}
		s, err := newIngestSession(req, e.ingestRingBytes)
		if err != nil {
			return false
		}
		s.resumed = true
		j = s.job(time.Unix(0, entry.SubmittedUnixNS))
		j.ID = entry.ID
		ingests[entry.ID] = j
		*order = append(*order, entry.ID)
		e.reg.mu.Lock()
		e.reg.restoreLocked(j)
		e.ctr.JournalReplayed++ // the journal_replayed gauge counts sessions, not lines
		e.reg.mu.Unlock()
	}
	// No pump runs yet, so replay may touch the pipeline; the registry
	// lock guards the rest of the session, which status reads may meet.
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	s := j.ingest
	var dec hmtt.DecoderState
	if ij.Decoder != nil {
		dec = *ij.Decoder
	}
	s.pipe.Resume(dec, ij.Counts)
	s.publish()
	// Everything the crash left acked-but-unpumped is gone; the durable
	// high-water mark is what the client rewinds to.
	s.accepted = ij.ChunksAcked
	s.processed = ij.ChunksAcked
	s.retried = ij.ChunksRetried
	for _, w := range ij.Windows {
		if w.Index == len(s.windows) { // idempotent under re-read lines
			s.windows = append(s.windows, w)
		}
	}
	s.journaledW = len(s.windows)
	s.winStart = ij.Counts
	if ij.Partial != nil {
		s.winStart = windowStart(ij.Counts, *ij.Partial)
	}
	j.progress.Store(int64(ij.Records))
	if !ij.Phase.Terminal() {
		// Resumable sessions come back paused: the pump is idle and the
		// client must re-sync to the durable high-water mark before
		// streaming resumes.
		s.phase = IngestPaused
		return true
	}
	s.phase = ij.Phase
	close(s.published)
	j.State = entry.State
	j.errMsg = entry.Error
	j.wallNS = entry.WallNS
	j.finished = time.Unix(0, entry.FinishedUnixNS)
	if entry.FinishedUnixNS == 0 {
		j.finished = j.submitted
	}
	if !j.doneClosed {
		j.doneClosed = true
		close(j.done)
	}
	e.reg.restoreLocked(j) // terminal now: files it for eviction
	return true
}

// resumeReplayedIngests restarts every replayed session that never
// reached a terminal entry — the streams the crash interrupted. Each
// comes back paused and resumable: same ID, durable chunk high-water
// mark, exact decoder state, a fresh pump, and a fresh idle deadline,
// so a client that reappears continues and one that doesn't expires the
// session — never a zombie. Iteration follows first-seen journal order,
// not map order.
func (e *Engine) resumeReplayedIngests(ingests map[string]*Job, order []string) {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	for _, id := range order {
		j := ingests[id]
		if j.State.Terminal() {
			continue
		}
		e.liveIngests = append(e.liveIngests, j)
		e.startIngestLocked(j, j.ingest)
	}
}

// ReplayJournalFile replays a journal file from disk. A missing file is
// a clean first boot, not an error.
func (e *Engine) ReplayJournalFile(path string) (ReplayStats, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return ReplayStats{}, nil
		}
		return ReplayStats{}, err
	}
	defer f.Close()
	return e.ReplayJournal(f)
}

// jobFromEntry rebuilds a terminal Job from one journal entry,
// revalidating the payload against the current catalog so the restored
// key is exactly the one a live submission of the same request
// would compute. Reports !ok for entries this build cannot restore.
func (e *Engine) jobFromEntry(entry JournalEntry) (*Job, bool) {
	// Only sweep parents may replay from a non-terminal entry (the
	// submission-time line); everything else journals exactly once, at
	// its terminal transition.
	if !entry.State.Terminal() && entry.Kind != KindSweep {
		return nil, false
	}
	if _, ok := jobIDNum(entry.ID); !ok {
		return nil, false
	}
	j := &Job{
		ID:        entry.ID,
		Kind:      entry.Kind,
		State:     entry.State,
		cached:    entry.Cached,
		submitted: time.Unix(0, entry.SubmittedUnixNS),
		wallNS:    entry.WallNS,
		simNS:     entry.SimNS,
		errMsg:    entry.Error,
		done:      make(chan struct{}),
	}
	j.finished = time.Unix(0, entry.FinishedUnixNS)
	j.doneClosed = true
	close(j.done) // born terminal: Wait returns immediately
	switch entry.Kind {
	case KindSim:
		norm, key, err := RunRequest{
			Workload: entry.Workload,
			System:   entry.System,
			Frac:     entry.Frac,
			Seed:     entry.Seed,
			Quick:    entry.Quick,
		}.Normalize()
		if err != nil {
			return nil, false // catalog drift: this build can't serve it
		}
		j.Sim = &norm
		j.key = key
		j.Result = entry.Metrics
		j.parentID = entry.Parent
	case KindExperiment:
		norm, key, err := ExperimentRequest{
			Experiment: entry.Experiment,
			Seed:       entry.Seed,
			Quick:      entry.Quick,
		}.Normalize()
		if err != nil {
			return nil, false
		}
		j.Exp = &norm
		j.key = key
		j.progress.Store(entry.Progress)
		if entry.Output != "" {
			j.Result = []byte(entry.Output)
		}
	case KindSweep:
		if entry.Sweep == nil {
			return nil, false
		}
		sw := &sweepState{
			req: SweepRequest{
				Workloads: entry.Sweep.Workloads,
				Systems:   entry.Sweep.Systems,
				Fracs:     entry.Sweep.Fracs,
				Seeds:     entry.Sweep.Seeds,
				Expand:    entry.Sweep.Expand,
				Quick:     entry.Quick,
			},
			childIDs: entry.Sweep.Children,
		}
		// Re-expansion is deterministic, so the per-point request
		// coordinates come back for the results stream; catalog drift
		// just leaves them blank rather than failing the parent.
		if norm, points, err := sw.req.Points(); err == nil && len(points) == len(sw.childIDs) {
			sw.req = norm
			sw.points = points
		}
		if entry.State.Terminal() {
			s := *entry.Sweep
			sw.final = &s
		} else {
			// Crash mid-sweep: the parent must never replay as a zombie
			// in-progress job. It comes back failed; whatever children
			// reached the journal before the crash stay individually
			// reachable (and byte-identical) through its child IDs.
			j.State = StateFailed
			j.errMsg = "sweep interrupted by daemon restart"
			if j.finished.IsZero() || entry.FinishedUnixNS == 0 {
				j.finished = j.submitted
			}
		}
		j.progress.Store(entry.Progress)
		j.sweep = sw
	default:
		return nil, false
	}
	return j, true
}

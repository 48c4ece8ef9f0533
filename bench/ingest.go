package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"hopp/internal/cachesim"
	"hopp/internal/hmtt"
	"hopp/internal/memsim"
	"hopp/internal/service"
	"hopp/internal/vclock"
	"hopp/internal/workload"
)

// traceSource is one workload the ingest workload captures an HMTT
// trace of. Footprints exceed the capture hierarchy's 16 MB LLC, so
// every loop misses and reaches the trace.
type traceSource struct {
	name string
	gen  func() workload.Generator
}

var (
	ingestSources = []traceSource{
		{"sequential", func() workload.Generator { return workload.NewSequential(8192, 2) }},
		{"ripple", func() workload.Generator { return workload.NewRipple(8192, 2) }},
		{"ladder", func() workload.Generator { return workload.NewLadder(8192, 2) }},
		{"omp-kmeans", func() workload.Generator { return workload.NewOMPKMeans(8192, 2) }},
	}
	tinySources = []traceSource{
		{"sequential", func() workload.Generator { return workload.NewSequential(256, 1) }},
	}
)

// Upload framing: records per chunk PUT and per metrics window.
const (
	chunkRecords  = 2048
	windowRecords = 8192
)

// captureTrace records gen's LLC misses the way cmd/tracegen does: the
// default hierarchy filters accesses, and hmtt.Capture encodes the
// misses, drained before its buffer can overflow.
func captureTrace(gen workload.Generator, seed int64) ([]byte, error) {
	gen.Reset(seed)
	h := cachesim.DefaultHierarchy()
	capture := hmtt.NewCapture(4096)
	var buf bytes.Buffer
	now := vclock.Time(0)
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		now = now.Add(a.Think)
		pa := memsim.PAddr(a.Addr) // identity mapping, as offline capture
		if h.Access(pa) != cachesim.LevelMemory {
			now = now.Add(15)
			continue
		}
		now = now.Add(100)
		capture.Observe(now, pa.Page(), a.Write)
		if capture.Pending() >= 1024 {
			if err := hmtt.WriteTrace(&buf, capture.Drain(0)); err != nil {
				return nil, err
			}
		}
	}
	if err := hmtt.WriteTrace(&buf, capture.Drain(0)); err != nil {
		return nil, err
	}
	if capture.Dropped() != 0 {
		return nil, fmt.Errorf("capture dropped %d records", capture.Dropped())
	}
	return buf.Bytes(), nil
}

// ingestLoad streams captured traces into the engine as back-to-back
// ingest sessions, each starting from a collected heap and scaled by
// its own calibration, with one producer and one follower of the
// windowed metrics stream. Throughput
// is the median over sessions of records per second, first PUT to last
// sealed window; each full window is one latency sample, from sending
// the chunk that completes it to its arrival on the follow stream.
type ingestLoad struct {
	s       *svc
	seed    int64
	sources []traceSource
	traces  [][]byte
}

func setupIngest(o options) (instance, error) {
	srcs := ingestSources
	if o.tiny {
		srcs = tinySources
	}
	l, err := newIngestLoad(o, srcs)
	if err != nil {
		return nil, err
	}
	warm := &outcome{}
	l.session(0, nil, warm)
	if warm.failed > 0 {
		return nil, errors.Join(fmt.Errorf("warm-up session: %v", warm.failures), l.close())
	}
	return l, nil
}

func newIngestLoad(o options, srcs []traceSource) (*ingestLoad, error) {
	l := &ingestLoad{seed: o.seed, sources: srcs}
	for _, src := range srcs {
		t, err := captureTrace(src.gen(), o.seed)
		if err != nil {
			return nil, fmt.Errorf("capturing %s: %w", src.name, err)
		}
		l.traces = append(l.traces, t)
	}
	s, err := startSvc(o)
	if err != nil {
		return nil, err
	}
	l.s = s
	return l, nil
}

func (l *ingestLoad) run(o options, tr *trace, deadline time.Time) *outcome {
	l.s.traceInto(tr)
	defer l.s.traceInto(nil)
	out := &outcome{}
	var rates []float64
	for k := 1; k == 1 || time.Now().Before(deadline); k++ {
		runtime.GC()
		f := o.cal.scale()
		n := len(out.latencyMS)
		if rate, ok := l.session(k, tr, out); ok {
			rates = append(rates, rate/f)
		}
		scaleAll(out.latencyMS[n:], f)
	}
	out.throughput = median(rates)
	return out
}

// replay is the traced sources as simulations under the two systems
// the sessions alternate between.
func (l *ingestLoad) replay() []point {
	var ps []point
	for _, src := range l.sources {
		for _, sys := range []string{"hopp", "spp"} {
			ps = append(ps, point{app: src.name, gen: src.gen, sys: sys, frac: 0.5})
		}
	}
	return ps
}

func (l *ingestLoad) close() error { return l.s.close() }

// arrival is one window read off the follow stream.
type arrival struct {
	win service.IngestWindow
	at  time.Time
}

// session uploads trace k mod len(traces) as ingest session k, with
// systems alternating between hopp and spp, and checks its windows. It
// returns the session's records per second, and false when it failed.
func (l *ingestLoad) session(k int, tr *trace, out *outcome) (float64, bool) {
	data := l.traces[k%len(l.traces)]
	records := len(data) / hmtt.RecordSize
	sys := "hopp"
	if k%2 == 1 {
		sys = "spp"
	}
	out.attempted++
	open, err := json.Marshal(map[string]any{
		"workload": l.sources[k%len(l.sources)].name, "system": sys, "frac": 0.5,
		"seed": l.seed, "window_records": windowRecords,
	})
	if err != nil {
		out.fail("ingest request: %v", err)
		return 0, false
	}
	start := time.Now()
	code, b, err := l.s.call(http.MethodPost, "/v1/ingests", open)
	var st service.RunStatus
	if err != nil || code != http.StatusAccepted || json.Unmarshal(b, &st) != nil {
		out.fail("ingest open: HTTP %d %s %v", code, b, err)
		return 0, false
	}
	followed := make(chan error, 1)
	var wins []arrival
	go func() { followed <- l.follow(st.ID, &wins) }()

	chunkBytes := chunkRecords * hmtt.RecordSize
	chunks := (len(data) + chunkBytes - 1) / chunkBytes
	sent := make([]time.Time, chunks)
	var ack time.Duration
	var first time.Time
	paused := 0
	var upload error
	for n := 0; n < chunks && upload == nil; {
		t0 := time.Now()
		code, b, err := l.s.call(http.MethodPut, fmt.Sprintf("/v1/ingests/%s/chunks/%d", st.ID, n), data[n*chunkBytes:min((n+1)*chunkBytes, len(data))])
		switch {
		case err != nil:
			upload = fmt.Errorf("chunk %d: %w", n, err)
		case code == http.StatusOK:
			took := time.Since(t0)
			if n == 0 {
				first = t0
			}
			sent[n] = t0
			ack += took
			tr.sample("ingest.chunk_ack_ms", ms(took))
			n++
		case code == http.StatusTooManyRequests:
			// Backpressure, not failure: the staging ring is full.
			paused++
			time.Sleep(time.Millisecond)
		default:
			upload = fmt.Errorf("chunk %d: HTTP %d %s", n, code, b)
		}
	}
	if code, b, err := l.s.call(http.MethodPost, "/v1/ingests/"+st.ID+"/close", nil); upload == nil && (err != nil || code != http.StatusOK) {
		upload = fmt.Errorf("close: HTTP %d %s %v", code, b, err)
	}
	if err := <-followed; upload == nil && err != nil {
		upload = fmt.Errorf("metrics stream: %w", err)
	}
	if upload != nil {
		out.fail("session %s: %v", st.ID, upload)
		return 0, false
	}
	tr.count("ingest.chunks", float64(chunks))
	tr.count("ingest.paused", float64(paused))
	tr.count("service.ops", float64(chunks))
	if err := l.check(st.ID, records, wins); err != nil {
		out.fail("session %s: %v", st.ID, err)
		return 0, false
	}
	last := wins[len(wins)-1].at
	for w, a := range wins {
		if a.win.Records != windowRecords {
			continue // the final partial window is sealed by close, not by a chunk
		}
		c := ((w+1)*windowRecords - 1) / chunkRecords
		seal := a.at.Sub(sent[c])
		out.latencyMS = append(out.latencyMS, ms(seal))
		tr.sample("ingest.window_seal_ms", ms(seal))
	}
	if tr != nil {
		sid := tr.add(0, st.ID, "session", start, last.Sub(start), 1)
		tr.add(sid, st.ID, "ingest.put_chunk", first, ack, int64(chunks))
		tr.add(sid, st.ID, "ingest.window", first, last.Sub(first), int64(len(wins)))
	}
	return float64(records) / last.Sub(first).Seconds(), true
}

// follow reads a session's metrics stream in follow mode until the
// session ends, stamping each window's arrival.
func (l *ingestLoad) follow(id string, wins *[]arrival) error {
	rc, err := l.s.stream("/v1/ingests/" + id + "/metrics?follow=true")
	if err != nil {
		return err
	}
	defer rc.Close()
	dec := json.NewDecoder(rc)
	for {
		var w service.IngestWindow
		err := dec.Decode(&w)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		*wins = append(*wins, arrival{w, time.Now()})
	}
}

// check requires the session to end done with every uploaded record in
// exactly one window, no loss and no retried chunk.
func (l *ingestLoad) check(id string, records int, wins []arrival) error {
	code, b, err := l.s.call(http.MethodGet, "/v1/ingests/"+id, nil)
	var st service.RunStatus
	if err != nil || code != http.StatusOK || json.Unmarshal(b, &st) != nil || st.Ingest == nil {
		return fmt.Errorf("status: HTTP %d %s %v", code, b, err)
	}
	if st.State != service.StateDone {
		return fmt.Errorf("ended %s: %s", st.State, st.Error)
	}
	in := st.Ingest
	if in.Records != uint64(records) || in.LossRecords != 0 || in.ChunksRetried != 0 {
		return fmt.Errorf("records %d of %d, %d lost, %d retried chunks", in.Records, records, in.LossRecords, in.ChunksRetried)
	}
	if len(wins) == 0 || len(wins) != in.Windows {
		return fmt.Errorf("streamed %d windows, status says %d", len(wins), in.Windows)
	}
	var sum uint64
	for i, a := range wins {
		if a.win.Index != i {
			return fmt.Errorf("window %d streamed at position %d", a.win.Index, i)
		}
		sum += a.win.Records
	}
	if sum != uint64(records) {
		return fmt.Errorf("windows hold %d records, uploaded %d", sum, records)
	}
	return nil
}

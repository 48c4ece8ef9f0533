package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"hopp/internal/service"
)

// svc is the service stack the daemon and ingest workloads drive: an
// in-process engine with two workers and a journal on a temp file,
// behind service.NewHandler on a loopback listener, and the HTTP client
// that talks to it.
type svc struct {
	eng     *service.Engine
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	journal *journalWriter
}

// journalWriter is the journal's sink. In a traced run it times every
// write the journal makes; otherwise it only forwards them.
type journalWriter struct {
	f  *os.File
	tr atomic.Pointer[trace]
}

func (w *journalWriter) Write(p []byte) (int, error) {
	tr := w.tr.Load()
	if tr == nil {
		return w.f.Write(p)
	}
	start := time.Now()
	n, err := w.f.Write(p)
	tr.sample("journal.write_us", float64(time.Since(start))/float64(time.Microsecond))
	tr.count("journal.writes", 1)
	return n, err
}

func startSvc(o options) (*svc, error) {
	f, err := os.CreateTemp(o.tmp, "journal-*.jsonl")
	if err != nil {
		return nil, err
	}
	jw := &journalWriter{f: f}
	eng := service.NewEngine(service.Options{Workers: 2, Journal: service.NewJournal(jw)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		f.Close()
		return nil, err
	}
	s := &svc{
		eng:     eng,
		srv:     &http.Server{Handler: service.NewHandler(eng), ReadHeaderTimeout: 10 * time.Second},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		client:  &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		journal: jw,
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// traceInto routes the journal's write timings into tr (nil stops it).
func (s *svc) traceInto(tr *trace) { s.journal.tr.Store(tr) }

// close stops the listener, drains the engine, and closes the journal.
func (s *svc) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Client side first: the transport may hold a spare connection that
	// never carried a request, which Shutdown would wait 5 s to reap.
	s.client.CloseIdleConnections()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.eng.Shutdown(ctx), s.journal.f.Close())
	return err
}

// call makes one request and returns the status code and body.
func (s *svc) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, b, nil
}

// stream opens a follow-mode NDJSON stream; the caller closes the body.
func (s *svc) stream(path string) (io.ReadCloser, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return resp.Body, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

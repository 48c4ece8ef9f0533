package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	"hopp/internal/faults"
)

// HandlerConfig carries the optional HTTP-layer collaborators. The
// zero value is valid: no limiter means every submission is admitted
// straight to the engine's own queue bound.
//
// The HTTP layer's fault sites read the engine's injector
// (Options.Faults): request-body reads that fail mid-stream
// (SiteHTTPBodyRead), results-stream writes that error
// (SiteHTTPResultsWrite), and clients that stall mid-stream
// (SiteHTTPStreamStall).
type HandlerConfig struct {
	// Limiter, when non-nil, applies per-client fairness in front of the
	// shared queue: each submit route spends one token from the caller's
	// bucket (keyed by X-API-Key, else the remote address) and answers
	// 429 + Retry-After when the bucket is dry.
	Limiter *ClientLimiter
}

// NewHandler builds the daemon's HTTP API over one engine:
//
//	POST   /v1/runs                   submit a workload × system simulation
//	                                  (429 + Retry-After when the queue is full)
//	GET    /v1/runs                   list retained jobs (sim + experiment)
//	                                  in submission order
//	GET    /v1/runs/{id}              one job's status: Metrics JSON for sim
//	                                  jobs, rendered Output for experiment jobs
//	                                  (404 once retention has evicted the job)
//	DELETE /v1/runs/{id}              cancel a queued or running job
//	GET    /v1/experiments            list regenerable tables/figures
//	POST   /v1/experiments/{id}/runs  submit an experiment job; poll it via
//	                                  GET /v1/runs/{id} like any other job
//	POST   /v1/sweeps                 submit a config grid; the engine expands
//	                                  it into sim children under one parent job
//	GET    /v1/sweeps/{id}            the parent's aggregate fan-out status
//	GET    /v1/sweeps/{id}/results    NDJSON of completed points in expansion
//	                                  order; ?follow=true streams every point
//	                                  as it lands
//	DELETE /v1/sweeps/{id}            cancel the whole fan-out
//	POST   /v1/ingests                open a live HMTT trace-ingest session
//	                                  (429 + Retry-After at -max-ingests)
//	GET    /v1/ingests/{id}           session status: phase, chunk high-water
//	                                  marks, windows, ring occupancy
//	PUT    /v1/ingests/{id}/chunks/{n}  stream one trace chunk; idempotent by
//	                                  index so clients retry after 5xx or
//	                                  timeouts (429 + Retry-After when the
//	                                  staging ring is full); waits while
//	                                  the chunk before it is fed
//	POST   /v1/ingests/{id}/close     end the stream; the session drains and
//	                                  finishes done
//	GET    /v1/ingests/{id}/metrics   NDJSON of finished metrics windows;
//	                                  ?follow=true streams each as it seals
//	DELETE /v1/ingests/{id}           cancel the session
//	GET    /healthz                   liveness; "ok" or "degraded" (both 200)
//	GET    /metrics                   per-kind jobs_* counters + gauges
//
// Sim and experiment submissions are instances of one Job lifecycle:
// both flow through the shared queue bound, per-run deadline, registry
// retention, and /metrics accounting. The handler is cmd/hoppd's entire
// surface; it lives here so httptest exercises exactly what the daemon
// serves.
func NewHandler(e *Engine) http.Handler { return NewHandlerWith(e, HandlerConfig{}) }

// NewHandlerWith is NewHandler plus the optional HTTP-layer
// collaborators in cfg (per-client admission today).
func NewHandlerWith(e *Engine, cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	limiter := cfg.Limiter

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Degraded is still 200: the daemon is alive and serving; the
		// body tells orchestrators to look before traffic worsens it.
		writeJSON(w, http.StatusOK, e.Health())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		m := e.Metrics()
		if limiter != nil {
			adm := limiter.Snapshot()
			m.Admission = &adm
		}
		writeJSON(w, http.StatusOK, m)
	})

	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		if !admit(w, r, e, limiter) {
			return
		}
		var req RunRequest
		if err := json.NewDecoder(requestBody(r, e.faults)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		status, err := e.Submit(req)
		writeSubmitResult(w, e, status, err)
	})

	mux.HandleFunc("GET /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"runs": e.Runs()})
	})

	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, err := e.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, status)
	})

	mux.HandleFunc("DELETE /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		cancelVia(w, e, r.PathValue("id"), e.Status)
	})

	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"experiments": Experiments()})
	})

	// The job form of experiment regeneration: submit, get an ID, poll
	// GET /v1/runs/{id} — the exact lifecycle sim runs have, including
	// 429 under -max-queue and 404 after retention.
	mux.HandleFunc("POST /v1/experiments/{id}/runs", func(w http.ResponseWriter, r *http.Request) {
		if !admit(w, r, e, limiter) {
			return
		}
		req, ok := experimentRequest(w, r)
		if !ok {
			return
		}
		status, err := e.SubmitExperiment(req)
		writeSubmitResult(w, e, status, err)
	})

	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		if !admit(w, r, e, limiter) {
			return
		}
		var req SweepRequest
		if err := json.NewDecoder(requestBody(r, e.faults)).Decode(&req); err != nil {
			// A body torn mid-upload sheds here, before the engine ever
			// sees the grid: no parent, no children, no registry entry.
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		status, err := e.SubmitSweep(req)
		writeSubmitResult(w, e, status, err)
	})

	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, err := e.SweepStatus(r.PathValue("id"))
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, status)
	})

	// The results stream: one NDJSON line per point, in expansion order.
	// The default form snapshots — only points already terminal are
	// emitted, so two reads of a finished sweep are byte-identical.
	// ?follow=true waits for each point in order and flushes per line,
	// tailing a live sweep to completion; the request context bounds the
	// wait, so a client that disconnects (or stalls past the server's
	// write timeout) releases nothing more than this handler goroutine —
	// the sweep itself keeps running. ?group-by=workload switches to the
	// seed-aggregated form: one line per (workload, system, frac) with
	// mean/stddev of sim_ns across seeds (snapshot-only, so it cannot
	// combine with follow).
	mux.HandleFunc("GET /v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		follow, ok := followParam(w, r)
		if !ok {
			return
		}
		id := r.PathValue("id")
		if g := r.URL.Query().Get("group-by"); g != "" {
			if g != "workload" {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad group-by %q (only \"workload\")", g))
				return
			}
			if follow {
				writeError(w, http.StatusBadRequest, fmt.Errorf("group-by is a snapshot form and cannot combine with follow"))
				return
			}
			groups, err := e.SweepGroups(id)
			if err != nil {
				writeError(w, errStatus(err), err)
				return
			}
			writeNDJSON(w, r, e.faults, false, func(_ context.Context, i int) (any, bool, bool) {
				if i >= len(groups) {
					return nil, false, false
				}
				return &groups[i], false, true
			})
			return
		}
		if _, err := e.SweepStatus(id); err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeNDJSON(w, r, e.faults, follow, func(ctx context.Context, i int) (any, bool, bool) {
			// Past the last point, or the client is gone, or the sweep
			// was evicted: the stream just ends. The snapshot form skips
			// points still in flight.
			pt, terminal, err := e.SweepPointAt(ctx, id, i, follow)
			return pt, !terminal, err == nil
		})
	})

	mux.HandleFunc("POST /v1/ingests", func(w http.ResponseWriter, r *http.Request) {
		if !admit(w, r, e, limiter) {
			return
		}
		var req IngestRequest
		if err := json.NewDecoder(requestBody(r, e.faults)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		status, err := e.OpenIngest(req)
		writeSubmitResult(w, e, status, err)
	})

	mux.HandleFunc("GET /v1/ingests/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, err := e.IngestStatusByID(r.PathValue("id"))
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, status)
	})

	// The chunk upload: strictly in-order by index, idempotent below the
	// acked high-water mark, so a client that lost a response to a
	// timeout or 5xx simply re-PUTs the same index and gets the same
	// 200. A full staging ring answers 429 + Retry-After with the
	// session paused; the client backs off and retries the identical
	// request.
	mux.HandleFunc("PUT /v1/ingests/{id}/chunks/{n}", func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(r.PathValue("n"))
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad chunk index %q", r.PathValue("n")))
			return
		}
		status, err := e.IngestChunk(r.Context(), r.PathValue("id"), n, requestBody(r, e.faults))
		if err != nil {
			if errors.Is(err, ErrIngestPaused) {
				// The pump needs time, not a different request: a short
				// fixed hint, since ring drain is a pump cycle away, not a
				// queue drain away.
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, status)
	})

	mux.HandleFunc("POST /v1/ingests/{id}/close", func(w http.ResponseWriter, r *http.Request) {
		status, err := e.CloseIngest(r.PathValue("id"))
		if err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, status)
	})

	// The windowed-metrics stream: one NDJSON line per sealed window, in
	// index order. The default form snapshots the windows sealed so far;
	// ?follow=true waits for each next window (flushing per line) until
	// the session goes terminal or the client leaves. Same stall/write
	// fault sites as the sweep results stream, same isolation: a stalled
	// consumer parks only this handler goroutine.
	mux.HandleFunc("GET /v1/ingests/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		follow, ok := followParam(w, r)
		if !ok {
			return
		}
		id := r.PathValue("id")
		if _, err := e.IngestStatusByID(id); err != nil {
			writeError(w, errStatus(err), err)
			return
		}
		writeNDJSON(w, r, e.faults, follow, func(ctx context.Context, i int) (any, bool, bool) {
			// In follow form IngestWindowAt waits, so a missing window
			// means the session ended (or the client left).
			win, have, _, err := e.IngestWindowAt(ctx, id, i, follow)
			return &win, false, err == nil && have
		})
	})

	mux.HandleFunc("DELETE /v1/ingests/{id}", func(w http.ResponseWriter, r *http.Request) {
		cancelVia(w, e, r.PathValue("id"), e.IngestStatusByID)
	})

	mux.HandleFunc("DELETE /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		cancelVia(w, e, r.PathValue("id"), e.SweepStatus)
	})

	return mux
}

// cancelVia serves a DELETE: it cancels the job and answers with its
// status after the cancel. The ID resolves through status first, so on
// a kind-specific surface IDs of other kinds 404 instead of cancelling
// arbitrary jobs.
func cancelVia(w http.ResponseWriter, e *Engine, id string, status func(id string) (RunStatus, error)) {
	if _, err := status(id); err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	if err := e.Cancel(id); err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	st, err := status(id)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// writeNDJSON serves the NDJSON streams (sweep results, their group-by
// form, ingest metrics): one line per item at(i) yields for i = 0, 1,
// 2, ..., until it reports !ok; items it marks skip are passed over.
// With follow set, at waits for each item and every line is flushed as
// written. A stalled consumer (SiteHTTPStreamStall) parks only this
// handler goroutine until the gate opens or the client leaves — the
// engine and every other request keep moving — and an injected write
// failure (SiteHTTPResultsWrite) ends the stream torn.
func writeNDJSON(w http.ResponseWriter, r *http.Request, inj *faults.Injector, follow bool, at func(ctx context.Context, i int) (v any, skip, ok bool)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		v, skip, ok := at(r.Context(), i)
		if !ok {
			return
		}
		if skip {
			continue
		}
		if inj.Hit(faults.SiteHTTPStreamStall) {
			if err := inj.Gate(faults.SiteHTTPStreamStall).Wait(r.Context()); err != nil {
				return
			}
		}
		if inj.ErrAt(faults.SiteHTTPResultsWrite) != nil {
			return
		}
		if err := enc.Encode(v); err != nil {
			return
		}
		if follow && flusher != nil {
			flusher.Flush()
		}
	}
}

// followParam parses the ?follow= flag of the NDJSON streams. On a
// malformed value it writes a 400 and reports !ok.
func followParam(w http.ResponseWriter, r *http.Request) (follow, ok bool) {
	f := r.URL.Query().Get("follow")
	if f == "" {
		return false, true
	}
	v, err := strconv.ParseBool(f)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad follow %q", f))
		return false, false
	}
	return v, true
}

// requestBody wraps a request body with the body-read fault site when an
// injector is configured; production passes the body through untouched.
func requestBody(r *http.Request, inj *faults.Injector) io.Reader {
	if inj == nil {
		return r.Body
	}
	return &siteReader{r: r.Body, inj: inj, site: faults.SiteHTTPBodyRead}
}

// siteReader fails reads on demand at a named fault site — a
// deterministic stand-in for a client whose upload dies mid-body.
type siteReader struct {
	r    io.Reader
	inj  *faults.Injector
	site string
}

func (sr *siteReader) Read(p []byte) (int, error) {
	if err := sr.inj.ErrAt(sr.site); err != nil {
		return 0, err
	}
	return sr.r.Read(p)
}

// admit runs the per-client fairness check for a submit route. When
// the caller's bucket is dry it writes 429 + Retry-After (the same
// adaptive hint queue overload uses) and reports false; a nil limiter
// admits everything.
func admit(w http.ResponseWriter, r *http.Request, e *Engine, limiter *ClientLimiter) bool {
	if limiter.Allow(clientKey(r)) {
		return true
	}
	w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds()))
	writeError(w, http.StatusTooManyRequests, ErrClientLimited)
	return false
}

// clientKey identifies the submitting client for fairness accounting:
// X-API-Key when the client presents one, else the remote host (port
// stripped, so one client's connections share one bucket).
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return "addr:" + r.RemoteAddr
	}
	return "addr:" + host
}

// experimentRequest parses the {id} path element and seed/quick query
// parameters of the experiment job route. On a malformed value it
// writes a 400 and reports !ok.
func experimentRequest(w http.ResponseWriter, r *http.Request) (ExperimentRequest, bool) {
	req := ExperimentRequest{Experiment: r.PathValue("id"), Seed: 1}
	if s := r.URL.Query().Get("seed"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad seed %q", s))
			return ExperimentRequest{}, false
		}
		req.Seed = v
	}
	if q := r.URL.Query().Get("quick"); q != "" {
		v, err := strconv.ParseBool(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad quick %q", q))
			return ExperimentRequest{}, false
		}
		req.Quick = v
	}
	return req, true
}

// writeSubmitResult renders a Submit/SubmitExperiment outcome: 202 for
// an admitted job, 200 for one born done as a result hit, 429 +
// Retry-After when admission control sheds it, and the mapped error
// status otherwise.
func writeSubmitResult(w http.ResponseWriter, e *Engine, status RunStatus, err error) {
	if err != nil {
		if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrIngestLimit) {
			// The queue (or ingest-session table) is at its bound; tell
			// well-behaved clients when to come back instead of letting
			// them hot-loop. The hint tracks observed drain time, so
			// backoff grows with the actual backlog.
			w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds()))
		}
		writeError(w, errStatus(err), err)
		return
	}
	code := http.StatusAccepted
	if status.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, status)
}

// errStatus maps engine errors to HTTP status codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownRun), errors.Is(err, ErrUnknownExperiment), errors.Is(err, ErrNotSweep),
		errors.Is(err, ErrNotIngest):
		return http.StatusNotFound
	case errors.Is(err, ErrUnknownWorkload), errors.Is(err, ErrUnknownSystem), errors.Is(err, ErrBadFrac),
		errors.Is(err, ErrBadSweep), errors.Is(err, ErrSweepTooLarge), errors.Is(err, ErrChunkRead):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotCancellable), errors.Is(err, ErrChunkOutOfOrder), errors.Is(err, ErrIngestClosed):
		return http.StatusConflict
	case errors.Is(err, ErrChunkTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClientLimited), errors.Is(err, ErrIngestPaused),
		errors.Is(err, ErrIngestLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) //hopplint:errok headers are already committed; a mid-body write error has no channel back to the client
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

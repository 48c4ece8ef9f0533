// Command hoppd serves HoPP simulations over HTTP: submissions fan out
// to a bounded worker pool, an identical request is served from a
// retained job's result or follows the live job computing it, and
// /metrics exposes the engine's runtime counters. See internal/
// service for the API surface.
//
// Usage:
//
//	hoppd -addr :8080
//	curl -XPOST localhost:8080/v1/runs -d '{"workload":"npb-mg","system":"hopp","frac":0.5,"seed":1}'
//	curl localhost:8080/v1/runs/r000001
//	curl -XPOST 'localhost:8080/v1/experiments/fig9/runs?quick=true'   # experiment job: poll /v1/runs/{id}
//	curl -XPOST localhost:8080/v1/sweeps -d '{"workloads":["npb-mg","npb-cg"],"systems":["hopp","fastswap"],"fracs":[0.25,0.5],"quick":true}'
//	curl localhost:8080/v1/sweeps/r000042                              # parent aggregate
//	curl 'localhost:8080/v1/sweeps/r000042/results?follow=true'        # NDJSON, one line per point
//	curl -XPOST localhost:8080/v1/ingests -d '{"system":"hopp","frac":0.5}'
//	curl -XPUT --data-binary @chunk0.hmtt localhost:8080/v1/ingests/r000043/chunks/0
//	curl -XPOST localhost:8080/v1/ingests/r000043/close
//	curl 'localhost:8080/v1/ingests/r000043/metrics?follow=true'       # NDJSON, one line per window
//	curl localhost:8080/metrics
//
// An ingest session streams a live HMTT trace (see cmd/tracegen
// -hmtt-stream) through a trace pipeline (internal/tracepipe): chunks
// are PUT strictly in order and are idempotent by index, so clients
// retry after timeouts or 5xx; a full staging ring answers 429 +
// Retry-After instead of buffering without bound (-ingest-ring-records
// sizes it); sessions idle past -ingest-idle-timeout expire; and at
// most -max-ingests sessions are live at once. With -journal, every
// processed chunk advances a durable high-water mark, so after a
// restart with -journal-replay the session comes back resumable at its
// last journaled chunk — the client re-queries, rewinds, and continues.
//
// Every submission — a workload × system simulation, an experiment
// regeneration, or a sweep — is one Job in a single shared lifecycle.
// A sweep expands a config grid (bounded by -max-sweep-points) into sim
// children under one parent job: each distinct workload stream is
// generated once and shared read-only across the grid, duplicate points
// (within the sweep, against any live job or any retained result)
// simulate once, and the fan-out is paced
// to the worker count so a giant sweep cannot starve other clients'
// single-run submissions. The daemon is built to run indefinitely under
// any mix of kinds: the job registry retains a bounded window of
// finished jobs (-retain-runs/-retain-age; evicted IDs answer 404 and
// their results stop serving identical requests),
// submissions beyond -max-queue are shed with 429 + Retry-After, each
// job is capped by -run-timeout, and the HTTP server bounds
// header/read/idle time so slow clients cannot pin connections. With
// -client-rate, per-client token buckets (keyed by X-API-Key, else
// remote address) shed a flooding client's submissions with 429 while
// everyone else keeps flowing.
//
// With -journal every job is appended to an append-only JSONL file the
// moment it reaches a terminal state, results included; -journal-replay
// reads that file back at startup and repopulates the registry and its
// key index, so a crash/restart cycle serves previously-completed runs
// byte-identically instead of recomputing them. A run that panics
// is contained on its worker: the job fails, jobs_panicked ticks, and
// the daemon keeps serving. /healthz reports "degraded" (still 200)
// when the queue nears its bound or the last journal write failed.
//
// SIGINT/SIGTERM trigger graceful shutdown: the listener closes, then
// queued and in-flight jobs drain (up to -drain-timeout) before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hopp/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hoppd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		drain   = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight runs on shutdown")

		// Resource limits: what keeps the daemon bounded under the
		// sustained traffic it exists to serve.
		maxQueue   = flag.Int("max-queue", 256, "max queued jobs before submissions get 429 (0 = unbounded)")
		retainRuns = flag.Int("retain-runs", service.DefaultRetainRuns, "finished jobs kept queryable and serving identical requests before eviction (404 afterwards)")
		retainAge  = flag.Duration("retain-age", time.Hour, "evict finished jobs, and end their result hits, older than this (0 = no age bound)")
		runTimeout = flag.Duration("run-timeout", 5*time.Minute, "per-job wall-clock deadline; timed-out jobs fail (0 = none)")
		maxSweep   = flag.Int("max-sweep-points", service.DefaultMaxSweepPoints, "max expanded grid points per sweep submission (larger grids get 400)")
		journal    = flag.String("journal", "", "append terminal jobs (results included) to this JSONL file (empty = no journal)")
		replay     = flag.Bool("journal-replay", false, "replay the -journal file at startup, repopulating the registry and its result hits")

		// Ingest-session bounds: live trace streams are long-lived and
		// hold per-session pipeline state, so they get their own caps.
		maxIngests = flag.Int("max-ingests", service.DefaultMaxIngests, "max concurrently live trace-ingest sessions (opens beyond get 429)")
		ingestIdle = flag.Duration("ingest-idle-timeout", service.DefaultIngestIdleTimeout, "expire an ingest session with no client activity for this long")
		ingestRing = flag.Int("ingest-ring-records", service.DefaultIngestRingRecords, "per-session staging ring capacity in trace records (full ring pauses the session with 429)")

		// Per-client fairness: token buckets in front of the shared
		// queue, so one flooding client collects 429s instead of
		// starving everyone else's admissions.
		clientRate  = flag.Float64("client-rate", 0, "per-client admitted submissions per second (0 = no per-client limit)")
		clientBurst = flag.Float64("client-burst", 8, "per-client burst allowance when -client-rate is set")

		// HTTP server timeouts: without these an idle or trickling
		// client (slowloris) pins a connection forever.
		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "max wait for request headers")
		readTimeout       = flag.Duration("read-timeout", time.Minute, "max wait for a full request read")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *replay && *journal == "" {
		return errors.New("-journal-replay requires -journal")
	}

	// Replay happens against the file BEFORE opening it for append, so
	// the reader never races the writer's own buffering.
	engine := service.NewEngine(service.Options{
		Workers:           *workers,
		MaxQueue:          *maxQueue,
		RetainRuns:        *retainRuns,
		RetainAge:         *retainAge,
		RunTimeout:        *runTimeout,
		MaxSweepPoints:    *maxSweep,
		MaxIngests:        *maxIngests,
		IngestIdleTimeout: *ingestIdle,
		IngestRingRecords: *ingestRing,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hoppd: "+format+"\n", args...)
		},
	})
	if *replay {
		stats, err := engine.ReplayJournalFile(*journal)
		if err != nil {
			return fmt.Errorf("replaying -journal: %w", err)
		}
		fmt.Fprintf(os.Stderr, "hoppd: journal replay: %d recovered, %d skipped, %d malformed\n",
			stats.Recovered, stats.Skipped, stats.Malformed)
	}
	if *journal != "" {
		jnl, err := service.OpenJournal(*journal)
		if err != nil {
			return fmt.Errorf("opening -journal: %w", err)
		}
		engine.SetJournal(jnl)
		defer func() {
			if err := jnl.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "hoppd: closing journal:", err)
			}
		}()
	}

	var limiter *service.ClientLimiter
	if *clientRate > 0 {
		limiter = service.NewClientLimiter(*clientRate, *clientBurst, 0)
	}
	// No WriteTimeout: a ?follow=true NDJSON stream stays open for as
	// long as its sweep or ingest session runs; a write deadline would
	// sever healthy streams. Reads and idle keep-alives are the
	// slowloris surface, and those are bounded.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHandlerWith(engine, service.HandlerConfig{Limiter: limiter}),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "hoppd: listening on %s (%d workers)\n", *addr, engine.Metrics().Workers)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "hoppd: shutting down, draining runs...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	serr := srv.Shutdown(drainCtx)
	if errors.Is(serr, http.ErrServerClosed) {
		serr = nil
	}
	if err := engine.Shutdown(drainCtx); err != nil {
		return err // typed: service.ErrDrainIncomplete wrapping the deadline
	}
	if serr != nil {
		return serr
	}
	fmt.Fprintln(os.Stderr, "hoppd: drained cleanly")
	return nil
}

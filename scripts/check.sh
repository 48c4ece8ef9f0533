#!/bin/sh
# Quick pre-merge check: formatting, static analysis, plus race-mode
# tests over the concurrent subsystems (the service engine, the
# simulator it drives, the workload generators shared across runs, and
# the experiment fan-out).
# The full tier-1 gate remains `go build ./... && go test ./...`.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "ERROR: not gofmt-clean (run gofmt -w on them):" >&2
    echo "$unformatted" >&2
fi
test -z "$unformatted"

echo "== go vet ./..."
go vet ./...

# copylocks explicitly as a hard gate (a copied sync.Mutex in the
# service layer silently breaks every bound this code enforces). shadow
# is not a built-in vet analyzer: in CI the workflow installs it and a
# missing tool is a hard failure (a broken install step must not
# silently drop the check); locally it stays best-effort so the script
# has no dependency the toolchain doesn't ship.
echo "== go vet -copylocks ./..."
go vet -copylocks ./...
if shadow_tool=$(command -v shadow 2>/dev/null); then
    echo "== go vet -vettool=shadow ./..."
    go vet -vettool="$shadow_tool" ./...
elif [ "${CI:-}" = "true" ]; then
    echo "ERROR: CI=true but shadow analyzer is not installed; the workflow's install step is broken" >&2
    exit 1
else
    echo "WARN: shadow analyzer not installed; shadow check skipped (copylocks gated above)"
fi

# hopplint is a hard gate: the repo's determinism invariants (no wall
# clock / unseeded rand / env reads in deterministic packages, no
# unsorted map ranges on output paths, ctx-first signatures, no silently
# dropped errors, no hot-path allocations, no blocking under locks) are
# enforced, not aspirational. The call-graph build makes it the slowest
# analysis step, so its wall time is printed and a slow run warns —
# above 30s it is eating the pre-merge loop and needs attention.
echo "== hopplint ./..."
hopplint_start=$(date +%s)
go run ./cmd/hopplint ./...
hopplint_elapsed=$(( $(date +%s) - hopplint_start ))
echo "hopplint took ${hopplint_elapsed}s"
if [ "$hopplint_elapsed" -gt 30 ]; then
    echo "WARN: hopplint took ${hopplint_elapsed}s (>30s); profile the loader or trim the module before this becomes the bottleneck"
fi

# internal/faults rides in the race gate alongside the service layer:
# the fault-injection tests (contained panics, journal write failures,
# gated slow runs) are exactly the paths where a data race would hide.
# The service package includes the sweep fan-out suite (shared frozen
# streams, in-flight dedupe, mid-sweep replay, stalled NDJSON clients) —
# the heaviest cross-goroutine surface in the repo. internal/sim carries
# the experiment fan-out itself (Fan, the machine-slot bound, concurrent
# comparisons). internal/prefetch rides along because its schemes run
# inside pool workers and its registry is read from every normalization
# path. internal/hmtt rides along because its streaming decoder is fed
# from ingest pump goroutines and its state snapshots cross the
# journal-replay boundary.
echo "== go test -race (service + faults + sim + workload + prefetch + hmtt, quick mode)"
go test -race -count=1 ./internal/service/... ./internal/faults/... ./internal/sim/... ./internal/workload/... ./internal/prefetch/... ./internal/hmtt/...

# internal/experiments runs its simulations concurrently with Progress
# ticks arriving from worker goroutines. A full regeneration under
# -race takes about a minute, so the gate runs the concurrency tests
# (cancellation and join, the observational Progress seam, tick counts
# of fan-out shapes: a nested comparison, co-runs, a run grid, and a
# mixed-config set) and fig1.
echo "== go test -race (experiments: concurrency tests + fig1)"
go test -race -count=1 -run 'Cancelled|ProgressSeam|Fig1Shape|TestProgressTickCounts/(fig1|fig15|fig19|fig22)$' ./internal/experiments/

# The examples are the facade's only end-to-end callers; building them
# is not enough to catch a facade that compiles but fails at run time,
# so each one runs to completion (about 5 s together).
echo "== examples"
for ex in examples/*/; do
    echo "-- go run ./$ex"
    go run "./$ex" >/dev/null
done

echo "check.sh: OK"

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
# dropped errors, no hot-path allocations, no blocking under locks, no
# code that only tests reach) are enforced, not aspirational. The call-graph build makes it the slowest
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

# The bench harness is its own module (bench/go.mod replaces hopp with
# this tree), so ./... above neither vets nor tests it. It calls into
# internal packages directly; a change that deletes or renames what it
# uses must fail here, before merge, rather than when the benchmark
# next runs.
echo "== bench: go vet + go test"
(cd bench && go vet ./... && go test -count=1 ./...)

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
# journal-replay boundary. internal/core rides along because every
# trainer owns its counting scratch: experiments run trainers on
# concurrent machines, and state shared between them would race.
echo "== go test -race (service + faults + sim + workload + prefetch + hmtt + core, quick mode)"
go test -race -count=1 ./internal/service/... ./internal/faults/... ./internal/sim/... ./internal/workload/... ./internal/prefetch/... ./internal/hmtt/... ./internal/core/...

# internal/experiments runs its simulations concurrently with Progress
# ticks arriving from worker goroutines. A full regeneration under
# -race takes about a minute, so the gate runs the concurrency tests
# (cancellation and join, every experiment's error on a cancelled
# context, the observational Progress seam, and tick counts of the
# runner's shapes: a comparison with a shared local in fig1 and fig22,
# co-runs in fig15, a grid in fig19, and mixed configs in table3's RPT
# cache sizes) and fig1. TestVisitBatchMatchesPerAccess replays 145
# machine runs on the naive reference machine (internal/refsim); under
# -race that matrix alone takes about 25 s, so here it runs only its
# co-runs and MaxAccesses cuts (the points where apps interleave and runs
# abort mid-visit). The plain test pass runs the whole matrix.
echo "== go test -race (experiments: concurrency tests + fig1 + reference co-runs and cuts)"
go test -race -count=1 -run 'Cancelled|ProgressSeam|Fig1Shape|TestProgressTickCounts/(fig1|fig15|fig19|fig22|table3)$' ./internal/experiments/
go test -race -count=1 -run 'TestVisitBatchMatchesPerAccess/(corun|maxaccesses)' ./internal/experiments/

# The naive-oracle fuzz targets compare the packed LRU kernel, through
# the cache level and the HPD table built on it, against slice-scan
# reference models; FuzzDecoder checks that the HMTT stream decoder
# frames any byte stream exactly — one record per complete 6-byte
# group, however torn the input or its chunking; FuzzFlatmapMatchesMap
# checks the flat hash map, and FuzzIndexMatchesMap the radix page
# index, against a Go map, op for op; FuzzRPTCacheMatchesNaive checks
# the write-back RPT cache against a last-written map with MRU-ordered
# sets, down to the DRAM table it leaves after a flush;
# FuzzTrainerMatchesNaive checks the trainer and the Markov predictor,
# with their stream-head index and incremental stride counts, against
# the linear-scan versions they replaced, prediction for prediction.
# FuzzRequestNormalize fills run, sweep and ingest requests with
# arbitrary names and raw float bits for frac: nothing panics, every
# accepted frac lies in [0, 1), normalizing twice changes nothing, and
# a sweep point keys like the same standalone run.
# FuzzReplayJournal replays truncated and corrupted journals, seeded
# with one a real engine wrote: no panic, no job left non-terminal
# after shutdown, every line that is not JSON counted malformed.
# FuzzReplayMatchesFresh builds any workload constructor at small sizes
# and any seed: a replay of the program frozen at that seed plays the
# fresh generator's stream access for access, and both report the
# distinct pages of a seed-0 play as their footprint.
# FuzzMachineMatchesReference runs a small workload, alone or beside a
# second, under any of seven systems at four local memory fractions on
# sim.Machine and on the naive reference machine: Metrics and errors
# must be identical. The committed corpora run in the plain test pass,
# and here each target also explores new inputs for a few seconds.
echo "== go test -fuzz (naive-oracle, decoder, request, journal-replay, page-program and reference-machine targets, 5s each)"
go test -run='^$' -fuzz=FuzzCacheMatchesNaive -fuzztime=5s ./internal/cachesim
go test -run='^$' -fuzz=FuzzTableMatchesNaive -fuzztime=5s ./internal/hpd
go test -run='^$' -fuzz=FuzzFlatmapMatchesMap -fuzztime=5s ./internal/flatmap
go test -run='^$' -fuzz=FuzzIndexMatchesMap -fuzztime=5s ./internal/radix
go test -run='^$' -fuzz=FuzzRPTCacheMatchesNaive -fuzztime=5s ./internal/rpt
go test -run='^$' -fuzz=FuzzTrainerMatchesNaive -fuzztime=5s ./internal/core
go test -run='^$' -fuzz=FuzzDecoder -fuzztime=5s ./internal/hmtt
go test -run='^$' -fuzz=FuzzRequestNormalize -fuzztime=5s ./internal/service
go test -run='^$' -fuzz=FuzzReplayJournal -fuzztime=5s ./internal/service
go test -run='^$' -fuzz=FuzzReplayMatchesFresh -fuzztime=5s ./internal/workload
go test -run='^$' -fuzz=FuzzMachineMatchesReference -fuzztime=5s ./internal/sim

# The cache level's hit step (touch, with lru's Touch) and its miss step
# (claim and evict, with lru's Claim and the page index's At) are
# inlined into the per-line and visit-mask loops; their speed rests on
# that. touch sits exactly at the inliner's budget, so a small edit can
# push it over and turn every hit into a call. lru's Drop is
# InvalidatePage's per-line step, the reclaim path's share of the cache
# layer. At is generic: the gate names cachesim's instantiation. Fail if
# any of the seven stops inlining.
echo "== inlining (cachesim touch/claim/evict, lru Order.Touch/Claim/Drop, radix Index.At)"
inlined=$(go build -gcflags=-m ./internal/cachesim ./internal/lru 2>&1)
for fn in '(*Cache).touch' 'claim' '(*Cache).evict' 'Order.Touch' \
    'Order.Claim' 'Order.Drop' 'radix.(*Index[hopp/internal/cachesim.PageLines]).At'; do
    if ! printf '%s\n' "$inlined" | awk -v want=": can inline $fn" \
        'substr($0, length($0) - length(want) + 1) == want { found = 1 } END { exit !found }'; then
        echo "ERROR: $fn is no longer inlinable (go build -gcflags=-m ./internal/cachesim ./internal/lru)" >&2
        exit 1
    fi
done

# AccessLines carries a visit's old tags from its claim pass to its
# settle pass in a 64-entry array; on the stack it costs nothing, on the
# heap an allocation per call. Fail if the compiler moves any of
# cachesim's variables to the heap.
echo "== escape analysis (cachesim: nothing moved to heap)"
escaped=$(go build -gcflags=-m ./internal/cachesim 2>&1 | grep 'moved to heap' || true)
if [ -n "$escaped" ]; then
    echo "ERROR: go build -gcflags=-m ./internal/cachesim moves variables to the heap:" >&2
    echo "$escaped" >&2
    exit 1
fi

# The cache layer's benchmarks run once each, so they keep compiling and
# running against the cache's current API: the per-line path (Stream)
# and the visit-mask path (Visit) over the same visits, one pass each,
# and a lone level's per-line Access (CacheAccess, the call ingest's
# trace capture makes per line), for a million accesses, since one
# access times only a cold start. Their timings are printed, not gated
# (the host's timing noise is wider than any useful bound). Beside them,
# the trainer's replay of a mixed hot page stream prints ns per Observe,
# also ungated.
echo "== go test -bench (cache hierarchy stream and visit, cache access, trainer observe)"
go test -run='^$' -bench='BenchmarkHierarchy(Stream|Visit)$' -benchtime=1x ./internal/cachesim
go test -run='^$' -bench='BenchmarkCacheAccess$' -benchtime=1000000x ./internal/cachesim
go test -run='^$' -bench='BenchmarkTrainerObserve$' -benchtime=1000000x ./internal/core

# The examples are the facade's only end-to-end callers; building them
# is not enough to catch a facade that compiles but fails at run time,
# so each one runs to completion (about 5 s together).
echo "== examples"
for ex in examples/*/; do
    echo "-- go run ./$ex"
    go run "./$ex" >/dev/null
done

echo "check.sh: OK"

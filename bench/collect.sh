#!/bin/sh
# Collects a set of benchmark runs for `--compare`:
#
#   sh bench/collect.sh OUT.jsonl FIRST_SEED LAST_SEED [WORKLOAD...]
#
# Run from the repository root. Every named workload (default: all five)
# runs once per seed, for BENCHMARK.json's run_seconds, and each run
# appends one line to OUT.jsonl: {"workload", "seed", "result"}. Then
#
#   bash bench/run.sh --compare BASE.jsonl NEW.jsonl
#
# judges every metric of every workload the two sets share.
set -eu
out=$1 first=$2 last=$3
shift 3
workloads=${*:-hopp-mc demand-faults expset-quick daemon ingest}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
for w in $workloads; do
	seed=$first
	while [ "$seed" -le "$last" ]; do
		line=$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
		printf '{"workload":"%s","seed":%s,"result":%s}\n' "$w" "$seed" "$line" >>"$out"
		seed=$((seed + 1))
	done
done

#!/bin/sh
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload hopp-mc --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, scratch files)
# stays under $CARGO_TARGET_DIR, default .bench_build, inside the
# checkout. The benchmark is its own module whose go.mod points back at
# the repository, so the build fails, and nothing is printed on stdout,
# when the rest of the repository is absent.
set -eu

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$(pwd)/$build ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C bench build -o "$build/hoppbench" . >&2
BENCH_BUILD_DIR=$build exec "$build/hoppbench" "$@"

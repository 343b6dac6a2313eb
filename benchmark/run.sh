#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Nothing
# is read or written outside the repository: the Go build cache, the build's
# temporary files and the binary all live in .bench_build/ at the root.
#
#   bash benchmark/run.sh                       every workload, untraced then traced
#   bash benchmark/run.sh --workload ring-batch --seed 7 --seconds 10 --trace 0
#   bash benchmark/run.sh -agree 5
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" -root "$PWD" "$@"

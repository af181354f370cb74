#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
#
#   bash perfbench/run.sh --workload paper-mp3d --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The Go build cache, the binary, the
# traced run's output and campaign state all stay under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$build/perfbench-bin" . >&2
exec "$build/perfbench-bin" --trace-dir "$build/perfbench-out" "$@"

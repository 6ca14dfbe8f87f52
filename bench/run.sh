#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash bench/run.sh --workload synth --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and temporary stores stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$build/netsmith-bench" ./bench
exec "$build/netsmith-bench" "$@"

#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run from the root of a
# checkout: bash perfbench/run.sh --workload sim-alexnet --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the benchmark's own output (traces,
# checkpoint directories) stay inside the checkout, under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOPATH="$build/gopath" GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

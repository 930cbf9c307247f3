#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is BENCHMARK.json's command: the driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# and runs it from the root of a checkout. Everything the build and the
# run write stays under <checkout>/.bench_build: the binary, Go's build
# cache, trace files and scratch data.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$here" -o "$build/repchain-bench" .
cd "$root"
exec "$build/repchain-bench" -out "$build/out" "$@"

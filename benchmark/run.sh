#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout (binary and Go build cache under .bench_build, nothing
# written elsewhere), then run it with the caller's arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"

#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source and run it
# with the driver's arguments (--workload --seed --seconds --trace).
#
# Everything go writes — build cache, module cache, the binary — goes under
# .bench_build/ in the checkout, so a run touches nothing outside it. The
# first run in a checkout therefore compiles the standard library too
# (about 20 s on two cores); later runs only re-check the cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/sharoes-bench" ./bench
exec "$build/sharoes-bench" -tmp "$build" "$@"

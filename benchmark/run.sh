#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark and the real
# strata-broker from the checkout's sources, keeping every build output
# (binaries and the Go build cache) under .bench_build in the checkout, then
# runs the benchmark with the arguments given. Run from the checkout's root:
#
#   bash benchmark/run.sh --workload live_xproc --seed 2022 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
go build -o "$root/.bench_build/bin/" ./benchmark ./cmd/strata-broker
export BENCH_BROKER_BIN="$root/.bench_build/bin/strata-broker"
exec "$root/.bench_build/bin/benchmark" "$@"

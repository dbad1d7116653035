#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload tcp-sat --seed 7 --seconds 15 --trace 0
#   bash bench/run.sh                 # the whole suite, untraced then traced
#   bash bench/run.sh -aa 10          # A/A check: two interleaved sets of 10
#
# Everything it writes stays inside the checkout: the binary and Go's build
# cache under .bench_build/ at the checkout's root, results under bench/out/.
set -euo pipefail

cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its env file and telemetry counters
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$build/gatesbench" .
exec "$build/gatesbench" "$@"

#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, and the traced rep's
# profiles. `go run ./bench` does the same job with the user's own
# build cache.
set -euo pipefail

if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: run it from the root of a checkout that holds the program" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/pprof"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

# With a fresh config directory the go command starts a detached
# telemetry child that outlives it. GOTELEMETRY cannot be set from the
# environment; the mode file is the only switch.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"

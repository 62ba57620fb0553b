#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. This is the command BENCHMARK.json names; it is run from
# the root of a checkout. Everything the build and the run write —
# the Go build cache, the binary, WAL directories, span files — goes
# under .bench_build in that checkout, which .gitignore lists.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program is not here to build" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off
# The go command otherwise forks a telemetry sidecar that outlives it
# (once per fresh config directory). Mode "off" is what `go telemetry
# off` writes; the variable makes go skip the fork even if that changes.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
export GO_TELEMETRY_CHILD=2
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"

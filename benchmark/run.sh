#!/usr/bin/env bash
# Driver entry point named by ../BENCHMARK.json: builds the harness from
# source inside the checkout (.bench_build/ holds the binary and the Go
# build cache, so nothing outside the checkout is written) and runs it from
# benchmark/, passing its arguments through.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/urcgc-benchmark" .
exec "$build/urcgc-benchmark" -state "$build" "$@"

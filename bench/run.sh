#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
# This is the command BENCHMARK.json names. Everything the build writes
# (binary, Go build cache, the go command's temporary files and its telemetry
# counters) stays under .bench_build/ at the root of the checkout, so a run
# touches nothing outside it; the working directory of the benchmark itself
# is the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"

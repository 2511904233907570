#!/usr/bin/env bash
# Builds the benchmark from source and runs it. BENCHMARK.json's command; run
# it from the root of a checkout:
#
#   bash benchmark/run.sh --workload net_read_p1 --seed 7 --seconds 17 --trace 0
#
# Everything the build writes — Go's build cache, the binary — goes under
# .bench_build/ in the checkout, and trace files under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"       # the module has no dependencies to fetch
export XDG_CONFIG_HOME="$build/config"  # where the go command keeps its own counters
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -C "$here" -o "$build/dego-benchmark" .
exec "$build/dego-benchmark" -out "$here/out" "$@"

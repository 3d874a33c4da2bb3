#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and
# runs it there. Usage, from the root of a checkout:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/go-tmp"
export GOCACHE=$build/go-cache GOPATH=$build/go-path GOMODCACHE=$build/go-mod GOTMPDIR=$build/go-tmp
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
export XDG_CONFIG_HOME=$build/config # where the go command keeps its telemetry counters
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash lambench/run.sh --workload describe --seed 1 --seconds 10 --trace 0
#   bash lambench/run.sh steady -runs 10
#
# Everything the build and the runs leave behind goes to .bench_build/ in
# the current directory: the Go build cache, the binary, per-run scratch
# files and the span files of traced runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"

(cd "$root/lambench" && go build -o "$build/lambench" .) >&2
exec "$build/lambench" "$@"

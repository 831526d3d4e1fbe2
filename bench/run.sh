#!/usr/bin/env bash
# Builds the EXIST benchmark from the checkout this script sits in and runs
# it with the given arguments, from the checkout root:
#
#   bash bench/run.sh --workload fleet --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout, and no module is
# fetched: the benchmark imports only the standard library and ../ (the
# exist module).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/bench" && go build -o "$build/exist-bench" .)
cd "$root"
exec "$build/exist-bench" "$@"

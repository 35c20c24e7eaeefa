#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it:
#
#   bash dmtpbench/run.sh --workload tiny_1flow --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temporary files, journals, trace files).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
go -C "$here" build -o "$build/dmtpbench" . >&2
exec "$build/dmtpbench" -root "$root" "$@"

#!/usr/bin/env bash
# Builds skybench from source and runs it with the given arguments. Run from
# the root of a checkout. Everything built or written lands under
# .bench_build/ in that checkout: the binary, Go's build cache, scratch files.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/gotmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOWORK=off
go build -C "$root/benchmarks" -o "$build/skybench" ./skybench
exec "$build/skybench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sct-first-bug --seed 1 --seconds 10 --trace 0
#
# Build products and the Go build cache stay under .bench_build (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" "$@"

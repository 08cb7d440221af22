#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload pr-bpull --seed 7 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build (or
# $CARGO_TARGET_DIR when set) in the current directory.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

# The go command's cache, temporary files and telemetry counters would
# otherwise land in the home directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" --out "$build/perfbench" "$@"

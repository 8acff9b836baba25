#!/usr/bin/env bash
# Builds the benchmark and pingd from source and runs the benchmark.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload deep-spill --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the Go tool's own config and every
# scratch file stay under .bench_build (or $CARGO_TARGET_DIR when set) in
# the working directory.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/pingd" ./cmd/pingd
exec "$out/perfbench" -pingd "$out/pingd" "$@"

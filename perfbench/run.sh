#!/usr/bin/env bash
# Builds the benchmark and the rmsynd binary from the checkout's sources,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload table2-auto --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the runs write
# stays inside the checkout: .bench_build (toolchain caches, binaries) and
# .bench_out (per-input rows, spans).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# The temporary directories and XDG_CONFIG_HOME keep the toolchain's work
# files, config and telemetry in the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	XDG_CONFIG_HOME="$build/config"

(
	cd "$root/perfbench"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/rmsynd" repro/cmd/rmsynd
) >&2

exec "$build/bin/perfbench" --rmsynd "$build/bin/rmsynd" --out "$root/.bench_out" "$@"

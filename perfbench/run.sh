#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it in place of
# this shell, so the benchmark is the only process left running. Run from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload live --seed 1 --seconds 10 --trace 0
#
# Build products, Go caches and the go command's own config and telemetry
# files stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && XDG_CONFIG_HOME="$build/config" go build -o "$build/perfbench" .) >&2
# Write the build's output back to disk now: left to the kernel, that
# writeback lands in the measured window and slows the WAL's fsyncs.
sync
exec "$build/perfbench" "$@"

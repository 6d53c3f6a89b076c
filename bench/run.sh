#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given flags. Run it from the checkout root:
#
#   bash bench/run.sh --workload drain --seed 1 --seconds 20 --trace 0
#
# The build and the run write only under .bench_build/ in the checkout: the
# Go build cache, the binary, the go command's telemetry counters (kept
# under the config dir), and temporary files, which include the spill
# server's session files.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
# Build from the local toolchain and sources only; never fetch.
export GOTOOLCHAIN=local GOPROXY=off

go -C "$root/bench" build -o "$out/pift-bench" .
exec "$out/pift-bench" "$@"

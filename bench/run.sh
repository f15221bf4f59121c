#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through.
#
#   bash bench/run.sh --workload fig4-gmp --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ at
# the repository root: the binary, the Go build cache and the CPU profiles.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
(cd "$root/bench" && go build -o "$out/gmpbench" .)

exec "$out/gmpbench" -out-dir "$out" "$@"

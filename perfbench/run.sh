#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. The Go build cache, the binary, spans and
# scratch state all stay under .bench_build/ in the checkout; the build
# never touches the network (no proxy, no toolchain download).
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"

#!/usr/bin/env bash
# Builds the benchmark and spfserve from the checkout it is run in, then
# runs the benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace/probe files go under $CARGO_TARGET_DIR (default .bench_build), so
# nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/perfbench"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOMAXPROCS=2

(cd perfbench && go build -o "$out/perfbench.bin" . && go build -o "$out/spfserve.bin" spforest/cmd/spfserve) >&2
exec "$out/perfbench.bin" -spfserve "$out/spfserve.bin" -out "$out/perfbench" "$@"

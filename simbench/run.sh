#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash simbench/run.sh --workload serve-miss --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$root/simbench" && go build -o "$out/simbench" .)
exec "$out/simbench" --out "$out" "$@"

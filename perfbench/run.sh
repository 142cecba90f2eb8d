#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
#
#   bash perfbench/run.sh --workload echo-4k --seed 1 --seconds 6 --trace 0
#
# Run from the repository root. Build outputs (Go build cache and the
# binary) go to $CARGO_TARGET_DIR, default .bench_build; nothing is
# fetched and nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

bin="$out/perfbench"
go -C "$root/perfbench" build -o "$bin.$$" . >&2
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"

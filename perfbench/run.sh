#!/usr/bin/env bash
# Builds the benchmark program and polygamyd from this checkout's sources and
# runs one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 12 --trace 0
#
# Build caches, binaries and scratch files stay under .bench_build/ in the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
mkdir -p "$out/tmp"
export GOTMPDIR="$out/tmp" GOFLAGS="" GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(
	cd "$here"
	go build -o "$out/perfbench" .
	go build -o "$out/polygamyd" github.com/urbandata/datapolygamy/cmd/polygamyd
)
exec "$out/perfbench" -root "$root" -polygamyd "$out/polygamyd" "$@"

#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#
#   bash bench/run.sh --workload serve_small --seed 1 --seconds 20 --trace 0
#
# Everything the build writes, the Go build cache included, stays under
# .bench_build in the checkout. The toolchain is used offline and as
# installed: no module or toolchain downloads.
set -euo pipefail
cd "$(dirname "$0")/.."
work=$PWD/.bench_build
mkdir -p "$work/tmp"
export GOCACHE=$work/gocache GOTMPDIR=$work/tmp GOPATH=$work/gopath \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -C bench -o "$work/liquidbench" .
exec "$work/liquidbench" "$@"

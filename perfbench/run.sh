#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload nozzle-small --seed 1 --seconds 40 --trace 0
#
# Every build artefact (Go build cache, binary) lands in .bench_build/ and
# every run output in perfbench/out/, both inside the checkout.
set -euo pipefail
root="$(pwd)"
bench="$root/perfbench"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$bench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$bench/out" "$@"

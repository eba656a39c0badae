#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload oneshot --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --selftest
#
# Run from the root of a checkout. Everything the build leaves behind
# (binary, Go build cache, trace files) goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep every file the go command writes (build cache, module cache,
# telemetry counters) inside the checkout.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
pgo=off
if [ -f "$root/default.pgo" ]; then
	pgo="$root/default.pgo"
fi
go -C "$root/perfbench" build -trimpath -pgo="$pgo" -o "$out/perfbench" .
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload chip-signoff --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache, Go config) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tree4-emit --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/perfbench"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTOOLCHAIN=local
export GOFLAGS=
export GOTELEMETRY=off
export XDG_CONFIG_HOME=$build/config

go -C perfbench build -buildvcs=false -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" --workdir "$build/perfbench" "$@"

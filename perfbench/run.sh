#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload stmt_read --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, module cache) goes under $CARGO_TARGET_DIR (default .bench_build)
# so the run writes nothing outside the checkout. Without the repository
# around perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" -tmp "$build" "$@"

#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload iot --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, binary, toolchain config) stays under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

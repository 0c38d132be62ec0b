#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash perfbench/run.sh --workload extract --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# scratch files stay inside the checkout: under $CARGO_TARGET_DIR when it is
# set (relative paths are taken from the repository root), else under
# .bench_build. Span files of traced runs go to .bench_out.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME=$build/config

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)

commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec "$build/perfbench" --commit "$commit" --out "$root/.bench_out" "$@"

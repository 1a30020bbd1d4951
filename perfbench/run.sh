#!/usr/bin/env bash
# Builds the benchmark harness (this directory is a Go module of its own
# that compiles against the repository's sources) and runs it with the
# given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-hit|serve-cold|solve-ilp --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and the run's scratch files stay
# under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -dir "$build/runs" "$@"

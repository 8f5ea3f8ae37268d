#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags:
#
#   bash perfbench/run.sh --workload grid|replay|serve|cluster \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, snapshot stores, span dumps) stays under
# .bench_build in the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOPROXY=off GOENV=off
mkdir -p "$GOTMPDIR"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"

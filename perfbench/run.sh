#!/usr/bin/env bash
# Builds the zipflm benchmark from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-word --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

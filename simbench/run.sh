#!/usr/bin/env bash
# Builds the simulator benchmark from the checkout it sits in and runs it:
#   bash simbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout root, so the benchmark reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/simbench" .) >&2
cd "$root"
exec "$out/simbench" "$@"

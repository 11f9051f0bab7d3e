#!/usr/bin/env bash
# Builds the benchmark harness and provd from the sources of the checkout it
# is run from, then runs one workload:
#
#   bash perfbench/run.sh --workload history_queries --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays in
# .bench_build/ under that root (Go build cache included).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# The harness is its own module (it imports the library through a replace
# of ../), so the two builds run from their own module roots.
(cd "$here" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/provd" ./cmd/provd)

exec "$out/perfbench" -work "$out/runs" -provd "$out/provd" -traces "$out/traces" "$@"

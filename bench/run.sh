#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write (Go build cache, the binary, the
# generated inputs, coordinator state) stays under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/trigene-bench" .)
cd "$root"
exec "$build/trigene-bench" -workdir "$build/work" "$@"

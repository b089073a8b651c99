#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the checkout root and runs it with the caller's arguments.
# The Go build cache and temp directory are pinned inside the checkout so a
# run reads and writes nothing outside it; the first run in a fresh checkout
# therefore also compiles the standard library (about a minute on two cores).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"

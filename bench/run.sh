#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source with
# every build output under .bench_build/ in the checkout, then runs it with
# the arguments given. `go run -C bench .` does the same with the default
# Go cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it, touching nothing outside the
# checkout: the Go build cache, the binary and the stores all live under
# .bench_build/ at the root. Usage: bash bench/run.sh [flags], see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -buildvcs=false -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"

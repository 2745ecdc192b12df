#!/usr/bin/env bash
# The driver's entry point: `go run ./benchmark "$@"` from the repo root,
# with everything the toolchain writes (build cache, temp files, the
# binary) kept inside the checkout under .bench_build/. The binary is
# built rather than `go run` so that later runs find it up to date and
# skip the link.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bdi-benchmark" ./benchmark
exec "$build/bdi-benchmark" -tmp-dir "$build/tmp" "$@"

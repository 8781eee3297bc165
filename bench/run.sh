#!/usr/bin/env bash
# Entry point named by ../BENCHMARK.json: builds the bench from source and
# runs it with the arguments given. Everything it writes stays inside the
# checkout: the Go build cache and the binary go to <checkout>/.bench_build,
# results and traces to bench/out.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -o "$build/ides-bench" .
exec "$build/ides-bench" "$@"

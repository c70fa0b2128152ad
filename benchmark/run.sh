#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload road-tcp --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write — Go's build cache included —
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export TMPDIR="$build/tmp" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/ebv-benchmark" .)
exec "$build/ebv-benchmark" "$@"

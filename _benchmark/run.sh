#!/usr/bin/env bash
# Builds localityd and the benchmark from the source tree this script sits
# in, then runs one workload:
#
#   bash _benchmark/run.sh --workload suite|serve|cluster --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the tree: the Go build cache, temporary files, both binaries and
# the daemons' scratch state.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/bin" "$out/work"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

cd "$root"
go build -o "$out/bin/localityd" ./cmd/localityd
(cd _benchmark && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" "$@" --localityd "$out/bin/localityd" --src "$root" --work "$out/work"

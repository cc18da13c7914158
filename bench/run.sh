#!/usr/bin/env bash
# Builds amdmbbench from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload dissect --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temp dirs, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, internal/ and bench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local

go build -C bench -o "$out/amdmbbench" ./amdmbbench
exec "$out/amdmbbench" "$@"

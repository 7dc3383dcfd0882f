#!/bin/sh
# Builds the benchmark from source into .bench_build/ (inside the
# checkout, so nothing is written elsewhere) and runs it with the
# caller's arguments. Run from the repository root:
#
#   sh bench/run.sh --workload serve_cached --seed 1 --seconds 15 --trace 0
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOWORK=off GOTOOLCHAIN=local \
	go build -C "$root/bench" -o "$out/mmperf" .
exec "$out/mmperf" "$@"

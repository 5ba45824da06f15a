#!/bin/sh
# Builds fdqbench from source and runs it with the arguments given; this is
# the command BENCHMARK.json names. Run it from the root of a checkout.
# Everything it writes (build cache, binary, result and span files) stays
# under .bench_build/ in that checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$out/fdqbench" ./cmd/fdqbench
exec "$out/fdqbench" "$@"

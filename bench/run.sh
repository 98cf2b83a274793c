#!/bin/sh
# Builds and runs the benchmark from the root of a checkout, keeping the
# Go build cache and temporary files inside the checkout (.bench_build),
# so that a run reads and writes nothing outside it. Arguments go to the
# benchmark: see README.md.
root=$(cd "$(dirname "$0")/.." && pwd) || exit 1
mkdir -p "$root/.bench_build/tmp" || exit 1
GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" exec go run -C "$root/bench" . "$@"

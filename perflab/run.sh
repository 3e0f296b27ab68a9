#!/usr/bin/env bash
# BENCHMARK.json's command. Builds perflab from source into the checkout's
# own .bench_build/ (binary, Go build cache and temp files all stay inside
# the checkout) and runs it with the arguments given. Run it from the root
# of the checkout: bash perflab/run.sh --workload exact-cold --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off
(cd "$root/perflab" && go build -o "$build/perflab" .)
exec "$build/perflab" -out "$build/perflab-out" "$@"

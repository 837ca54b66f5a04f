#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every file it writes stays under .bench_build/.
#
#   bash perfbench/run.sh --workload read-fanout --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare -parent DIR -change DIR
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/gotmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

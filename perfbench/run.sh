#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 10 --trace 0
#
# Every build artefact (compiler cache, temporaries, the binary) stays
# under .bench_build/ in the current directory. A failed build exits
# non-zero before anything is printed on standard output.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gomodcache" "$out/bin"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) 1>&2
exec "$out/bin/perfbench" "$@"

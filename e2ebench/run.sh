#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and
# runs it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload query-hot --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, store files, trace files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
# Everything builds from this tree; never fetch a module.
export GOPROXY=off

(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" "$@"

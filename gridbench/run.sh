#!/usr/bin/env bash
# Builds the grid benchmark from the checkout's sources and runs one
# workload. Every build artefact, Go cache entry and journal directory stays
# under .bench_build/ at the checkout root.
#
#   bash gridbench/run.sh --workload consign --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS=
export TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/gridbench" .) >&2
cd "$root"
exec "$build/gridbench" -dir "$build" "$@"

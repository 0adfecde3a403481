#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it once.
#
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload fig4_cold --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write (the Go build cache, the
# binary, the service data directories) stays under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -data "$out/data" "$@"

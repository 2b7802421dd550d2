#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash cmd/bench/run.sh --workload fig9_grid --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and every temporary file the benchmark writes
# stay under .bench_build in the current directory; the module proxy is
# disabled, so a tree without the repository's go.mod fails to build instead
# of reaching for the network.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd cmd/bench && go build -o "$build/bench" .)
exec "$build/bench" -workdir "$build/tmp" "$@"

#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it with the given
# flags, e.g.
#
#   bash wallbench/run.sh --workload audit --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# go command's own state stay under .bench_build/ there, so nothing is
# written outside the checkout and nothing is fetched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off
# Build under a private name and rename, so that a binary still running
# from an earlier invocation is never overwritten in place.
go -C "$root/wallbench" build -o "$build/wallbench.$$" .
mv -f "$build/wallbench.$$" "$build/wallbench"
exec "$build/wallbench" "$@"

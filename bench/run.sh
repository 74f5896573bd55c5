#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   sh bench/run.sh --workload paper-measure --seed 0 --seconds 25 --trace 0
#
# The benchmark is its own Go module (bench/go.mod), built against the
# checkout's cookieguard module. The Go build cache and the go command's
# own state stay inside the checkout, under .bench_build. See
# bench/README.md.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
mkdir -p "$build/tmp"
go -C bench build -o "$build/cookieguard-bench" .
exec "$build/cookieguard-bench" "$@"

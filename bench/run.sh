#!/usr/bin/env bash
# Builds whart-bench from this checkout and runs it with the given flags,
# e.g. bash bench/run.sh --workload hot-read --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, temp files, the binary)
# stays under .bench_build at the checkout root. Without the repository's
# go.mod next to bench/ the build fails and nothing runs.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C "$root/bench" build -o "$out/whart-bench" ./cmd/whart-bench
exec "$out/whart-bench" "$@"

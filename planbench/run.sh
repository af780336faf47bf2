#!/usr/bin/env bash
# Builds and runs the planbench benchmark from the repository root:
#
#   bash planbench/run.sh --workload plan-hot --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary build files and span dumps all stay under
# .bench_build/ in the current directory, and the toolchain downloads
# nothing. Outside a full checkout (no parent module beside planbench/) the
# build fails, and so does this script.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
cd "$root/planbench"
exec go run . -out "$out" "$@"

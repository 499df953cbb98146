#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload sync-mnv2 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and Go's temporary files all stay under
# .bench_build/ in the current directory; nothing else is written.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

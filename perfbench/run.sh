#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload dynamic --seed 1 --seconds 28 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# journals, WALs, checkpoints, span files) goes under .bench_build/ in
# the current directory. Outside a checkout of the repository (no
# go.mod one level up from this script) the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" --work "$out/perfbench-work" "$@"

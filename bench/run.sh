#!/usr/bin/env bash
# Builds the benchmark from the source tree this script sits in and runs
# it from the tree's root, passing every argument through:
#
#   bash bench/run.sh --workload registry --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -compare A.jsonl B.jsonl
#
# The build cache, module cache, temporary files, the go command's own
# config and the binary live under .bench_build/ in the tree, so nothing
# is written outside it. The benchmark module replaces `repro` with the
# parent directory: without the repository's sources next to bench/ the
# build fails and the script exits non-zero before printing anything.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
  GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)

cd "$root"
exec "$build/bench" "$@"

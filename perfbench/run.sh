#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it:
#
#   bash perfbench/run.sh --workload drift-retrain --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The Go build cache, the
# build's scratch files, the go command's user configuration and the
# binary are kept under .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || ! grep -qx 'module mood' go.mod; then
  echo "perfbench: run from the root of the mood repository" >&2
  exit 2
fi
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOMODCACHE="$PWD/.bench_build/gomodcache" \
  GOTMPDIR="$PWD/.bench_build/tmp" XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local
go build -o .bench_build/perfbench ./perfbench
exec .bench_build/perfbench "$@"

#!/usr/bin/env bash
# Builds the perfbench harness from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build cache, the binary and the
# traced run's spans and profile all stay under .bench_build/ in the
# checkout. Without the repository's sources the build, and so the run,
# fails.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C "$root/perfbench/_src" -o "$out/perfbench" .
exec "$out/perfbench" -outdir "$out" "$@"

#!/usr/bin/env bash
# Builds perfbench from this checkout's sources into .bench_build and runs
# it with the given arguments, e.g.
#   bash perfbench/run.sh --workload kernel --seed 1 --seconds 25 --trace 0
# Run it from the repository root. Everything it builds, caches or writes
# stays in .bench_build; the build fails, and so does the run, when the
# logmob sources are not beside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS="-mod=mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

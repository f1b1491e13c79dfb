#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash headbench/run.sh <arguments from BENCHMARK.json> \
#       --workload fleet --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, temporary files) stays under .bench_build/ in the working
# directory. The build fails, and the script exits non-zero without a
# result, when the parent module is absent.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
commit=unknown
if [ -e "$root/.git" ]; then
  commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/headbench" && go build -o "$out/headbench" .)
exec "$out/headbench" -commit "$commit" "$@"

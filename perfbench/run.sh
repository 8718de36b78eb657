#!/usr/bin/env bash
# Builds the benchmark from the sources in the working directory (the root
# of a checkout) and runs it; every argument is passed through, e.g.
#
#	bash perfbench/run.sh --workload sum-batch --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and all scratch files stay under
# .bench_build, and no module is fetched: the build uses only the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout
# root and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-ingest --seed 1 --seconds 15 --trace 0
#
# The Go build cache lives under .bench_build/ too, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash _perfbench/run.sh --workload analyze --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Build outputs and the Go build
# cache go to $CARGO_TARGET_DIR (default .bench_build), so nothing is
# written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -f _perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the module sources are missing" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd _perfbench && go build -o "$out/perfbench" .)

commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse --short=12 HEAD 2>/dev/null || true)"
exec env BENCH_COMMIT="$commit" BENCH_OUT="$out" "$out/perfbench" "$@"

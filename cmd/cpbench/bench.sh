#!/usr/bin/env bash
# Builds cpbench from this checkout and runs it; cpbench in turn builds
# cmd/cpserver. Run from the repository root:
#
#   bash cmd/cpbench/bench.sh -workload hot-cache -seed 2007
#
# Every build output, including the Go build cache, stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f cmd/cpserver/main.go ] || [ ! -f cmd/cpbench/go.mod ]; then
	echo "cpbench: run from the repository root" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd cmd/cpbench && go build -o "$build/bin/cpbench" .)
exec "$build/bin/cpbench" "$@"

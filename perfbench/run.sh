#!/usr/bin/env bash
# Builds the Pretium benchmark from the source in this checkout and runs it.
#
#   bash perfbench/run.sh --workload serve-http --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, span files) stays under .bench_build/ in the
# checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a Pretium checkout (go.mod, internal/ and perfbench/ must exist)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"

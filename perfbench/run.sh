#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it from the checkout root, passing every argument through, e.g.
#
#   bash perfbench/run.sh --workload topk_cold --seed 1 --seconds 25 --trace 0
#
# The Go toolchain's caches and configuration (telemetry included), the
# binary, result records and span files all go to .bench_build/ in the
# checkout; nothing outside it is written.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
cd "$root"
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"

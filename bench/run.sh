#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# together with the Go build cache) and runs it with the given arguments.
# Run from the root of the checkout: bash bench/run.sh --workload xf_hybrid ...
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# keep everything the toolchain writes inside the checkout
export GOCACHE="$out/go-cache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/gpubench" .) >&2
cd "$root"
exec "$out/gpubench" "$@"

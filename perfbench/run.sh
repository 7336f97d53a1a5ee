#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it,
# forwarding every flag (--workload, --seed, --seconds, --trace). Run it
# from the repository root. Build outputs, the Go build cache and the
# run's temporary files all stay under .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --workdir "$out/tmp" "$@"

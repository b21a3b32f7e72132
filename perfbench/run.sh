#!/usr/bin/env bash
# Builds the benchmark and the trace checker from source, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload profile --seed 1 --seconds 18 --trace 0
#
# Every build artefact, the Go build cache and the traces stay under
# .bench_build/ in the working directory.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
    echo "perfbench: run from the repository root (no go.mod/internal here)" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/xdg-config"
export XDG_CACHE_HOME="$out/xdg-cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOWORK=off
unset GOGC GOMAXPROCS

go -C "$root/perfbench" build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/dvf-flame" ./cmd/dvf-flame >&2

exec "$out/bin/perfbench" --flame "$out/bin/dvf-flame" --out "$out/runs" "$@"

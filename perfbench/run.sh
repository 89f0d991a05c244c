#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.:
#   bash perfbench/run.sh --workload transfer-mem --seed 1 --seconds 30 --trace 0
# Everything it builds and writes stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/perfbench"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$src" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" -out "$out/perfbench" -commit "$commit" "$@"

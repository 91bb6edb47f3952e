#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of the repository:
#
#   bash perfbench/run.sh --workload flp-wq4r1 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, spill segments, spans
# and the result record.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off

(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)

# Only a checkout that is itself a git work tree names its commit: git
# would otherwise report the commit of whatever repository encloses it.
commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$out/perfbench" -root "$root" -out "$out" -commit "$commit" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# and module caches, temporary files) stays under .bench_build in that
# root, so a run reads and writes nothing outside the checkout. The
# last line of standard output is the result object; see
# perfbench/README.md.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

(cd "$here" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

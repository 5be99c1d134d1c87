#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary, e.g.
#
#   bash bench/run.sh --workload repair_cold --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary, temporary directories and span files all
# live under .bench_build/ in the current directory, and the Go toolchain's
# own state (telemetry counters included) is kept there too, so nothing
# outside the checkout is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOWORK=off GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/hgbench" .)
exec "$out/hgbench" -workdir "$out" "$@"

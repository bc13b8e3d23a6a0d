#!/usr/bin/env bash
# Builds the benchmark and runs it against this checkout.  Run it from the
# repository root; every argument is passed on:
#
#   bash benchmark/run.sh --workload match-rand --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries and the daemons' data directories all
# live under .bench_build/ in the root, so a run writes nothing outside the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" -root "$root" "$@"

#!/usr/bin/env bash
# Builds the benchmark and the xmlac server from source, then runs one
# workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload read-native --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the current directory. Build output goes to stderr; the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
go build -o "$out/xmlac" ./cmd/xmlac >&2

exec "$out/perfbench" -xmlac "$out/xmlac" -workdir "$out/run" "$@"

#!/usr/bin/env bash
# Builds the benchmark and the alsd daemon from source into .bench_build
# and runs the benchmark. Run it from the repository root:
#
#   bash benchmark/run.sh --workload c880-er --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh -seed 1 -o results.json
#   bash benchmark/run.sh -compare old.json new.json
#
# Everything it writes (Go caches, temporary files, binaries, traces)
# stays under .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
(
	cd "$(dirname "$0")"
	go build -o "$out/alsbench" .
	go build -o "$out/alsd" batchals/cmd/alsd
)
exec "$out/alsbench" -alsd "$out/alsd" -trace-dir "$out/traces" "$@"

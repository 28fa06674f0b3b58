#!/usr/bin/env bash
# Builds the benchmark and the program from source, then runs one
# measurement. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig2-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

trace=0
for ((i = 1; i <= $#; i++)); do
	if [[ "${!i}" == "--trace" || "${!i}" == "-trace" ]]; then
		j=$((i + 1))
		trace="${!j}"
	fi
done

go build -o "$build/bin/" ./cmd/hijackd ./cmd/mrtreplay
if [[ "$trace" == "0" ]]; then
	(cd perfbench && go build -o "$build/bin/" ./cmd/bench)
	exec "$build/bin/bench" -bin "$build/bin" -work "$build" "$@"
fi
(cd perfbench && go build -o "$build/bin/" ./cmd/traced)
exec "$build/bin/traced" -bin "$build/bin" -work "$build" "$@"

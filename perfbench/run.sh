#!/usr/bin/env bash
# Builds the benchmark and the mapperd daemon from the checkout it is run
# in, then runs one workload:
#
#   bash perfbench/run.sh --workload paper-w --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, Go cache and state
# directory stays under .bench_build/ in that root; build output goes to
# standard error so the last line of standard output is the result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOWORK=off CGO_ENABLED=0

(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/mapperd" tlbmap/cmd/mapperd
) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"

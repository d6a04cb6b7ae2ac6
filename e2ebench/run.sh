#!/usr/bin/env bash
# Builds kgserver and the benchmark from the checkout's sources, then runs
# one benchmark run. Usage, from the repository root:
#
#   bash e2ebench/run.sh --workload explore --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and run scratch files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/kgserver" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of a kgexplore checkout (go.mod, cmd/kgserver and e2ebench/ needed)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
export GOPATH="$out/gopath" GOPROXY=off

go build -o "$out/kgserver" ./cmd/kgserver
(cd e2ebench && go build -o "$out/e2ebench" .)

exec "$out/e2ebench" -server "$out/kgserver" -work "$out/work" "$@"

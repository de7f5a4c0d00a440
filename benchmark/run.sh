#!/bin/bash
# Entry point of the repo benchmark (BENCHMARK.json "command"). Run it from
# the root of a checkout:
#
#   bash benchmark/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
#
# It builds graphd, graphctl and the benchmark from source into .bench_build/
# (Go's build cache and the go command's home directory live there too, so
# nothing outside the checkout is written) and then runs the benchmark,
# which takes every other flag.
set -euo pipefail

root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/graphd" ] || [ ! -d "$root/benchmark" ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repo (no go.mod, cmd/graphd or benchmark/ here)" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPROXY=off GOWORK=off GOTOOLCHAIN=local
# The go command keeps its module cache under $HOME/go and its telemetry
# counters under the user's config directory; both belong in the checkout.
export HOME=$build/home
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOPATH GOMODCACHE GOENV GOFLAGS

(cd "$root" && go build -o "$build/bin/" ./cmd/graphd ./cmd/graphctl)
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)

exec "$build/bin/benchmark" -bin "$build/bin" -work "$build/tmp" "$@"

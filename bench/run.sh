#!/usr/bin/env bash
# Builds jppbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload olden-jpp --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own state)
# stays under .bench_build at the checkout root.  Without the simulator's
# sources beside bench/ the build fails and nothing is printed on stdout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

(
	cd "$root/bench"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
	go build -o "$build/jppbench" ./jppbench
) >&2

exec "$build/jppbench" "$@"

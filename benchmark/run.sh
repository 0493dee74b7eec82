#!/usr/bin/env bash
# Entry point of the repository benchmark (BENCHMARK.json "command").
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark driver and the layer probes from source into
# .bench_build/ at the root of the checkout (Go's own build cache is kept
# there too, so nothing is written outside the checkout), then runs the
# driver with the given arguments. The build is a no-op when nothing changed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
bin="$out/bin"
mkdir -p "$bin/probes"

# Everything Go writes stays under .bench_build; the module has no
# dependencies outside this repository, so no network or module cache is used.
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOWORK=off

cd "$here"
# The driver must build; build output goes to stderr so stdout stays the
# benchmark's own.
go build -o "$bin/benchmark" . >&2

# Each probe is its own program: one that no longer builds loses only its
# own metrics (the driver reports them as missing).
if ! go build -o "$bin/probes/" ./probes/... >&2 2>/dev/null; then
	for dir in probes/*/; do
		name="$(basename "$dir")"
		if ! go build -o "$bin/probes/$name" "./probes/$name" >&2; then
			rm -f "$bin/probes/$name"
			echo "benchmark/run.sh: probe $name does not build; its metrics will be missing" >&2
		fi
	done
fi

cd "$root"
exec "$bin/benchmark" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.:
#
#   bash perfbench/run.sh --workload fig6-sweep --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Everything the build and the run write
# (the Go build cache, the binary, campaign journals) goes under
# .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/bugs || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a nodefz checkout (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

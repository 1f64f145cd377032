#!/usr/bin/env bash
# Runs a workload once per seed and reports each end-to-end metric's
# spread across the runs against its bound in BENCHMARK.json:
#
#   bash perfbench/steady.sh campaign-rep 1 2 3 4 5
#
# Run from the root of a checkout. Result lines are kept in
# .bench_build/steady/<workload>.jsonl.
set -euo pipefail

workload=$1
shift
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p .bench_build/steady
results=".bench_build/steady/$workload.jsonl"
: >"$results"
for seed in "$@"; do
	bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >>"$results"
done
.bench_build/perfbench -spread "$results"

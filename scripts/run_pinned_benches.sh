#!/usr/bin/env bash
# Runs the eight benches whose JSON records the committed baseline
# (bench/baselines/BENCH_partition.json) holds, with their pinned
# arguments, writing one "eblocks-bench/2" file per bench into OUT_DIR.
# Stops with a non-zero exit as soon as any bench fails.  Run it against
# a Release build; scripts/compare_bench.py then diffs the output (see
# docs/benchmarks.md).
#
# Usage: scripts/run_pinned_benches.sh BUILD_DIR OUT_DIR
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
bin="$1/bench"
out="$2"
mkdir -p "$out"

"$bin/bench_exhaustive_blowup" 12 3 10 --json="$out/blowup.json"
"$bin/bench_table1" 60 --json="$out/table1.json"
"$bin/bench_parallel_speedup" 11 2 4 20 --json="$out/speedup.json"
"$bin/bench_micro" --benchmark_filter=BM_PortCounterMoves \
  --json="$out/micro.json"
"$bin/bench_verify" 256 40 --json="$out/verify.json"
"$bin/bench_scalability" 200 --json="$out/scalability.json"
"$bin/bench_cache" 32 --json="$out/cache.json"
"$bin/bench_load" 8 16 --json="$out/load.json"

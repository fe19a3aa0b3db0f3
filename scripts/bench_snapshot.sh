#!/usr/bin/env bash
# Build and run the performance snapshots:
#
# * BENCH_dp.json — per net size, median wall time for the arena engine
#   vs the seed engine, candidate-pressure stats, and (with allocation
#   counting compiled in) allocator traffic per run, the exact DP work
#   counters (merge rows swept, rows dropped at emission, compactions,
#   rows any dominance sweep comparison-sorted),
#   plus the greedy optimizer's incremental-vs-full-resweep "analysis"
#   section;
# * BENCH_memo.json — cold vs memo-warm family passes over the perturbed
#   net workload: median pass times, steady-state subtree hit rate, and
#   the memo-table counters. The memo snapshot exits nonzero if the warm
#   hit rate drops below 30 %, if a seeded solution deviates bitwise from
#   its cold twin, or if a small-budget table overruns its byte budget.
#
# usage: scripts/bench_snapshot.sh [--quick] [--out PATH] [--memo-out PATH]
#                                  [--no-alloc-count] [--gate]
#
#   --quick           5 samples per size instead of 31 (CI smoke)
#   --out PATH        where to write the DP JSON (default BENCH_dp.json)
#   --memo-out PATH   where to write the memo JSON (default BENCH_memo.json)
#   --no-alloc-count  skip the counting-allocator build; wall times then
#                     come from the stock allocator (marginally faster)
#   --gate            fail if the fresh DP snapshot's arena/reference
#                     median ratios drift more than 2% from the committed
#                     BENCH_dp.json, or if an exact counter rises above
#                     the committed row: merge_rows_swept or
#                     prune_rows_sorted on a size row, dp_runs or
#                     merge_rows_swept on a search row (the committed
#                     file is copied aside first, so the fresh snapshot
#                     still lands in place)
set -euo pipefail

cd "$(dirname "$0")/.."

features=(--features alloc-count)
args=()
memo_args=()
gate=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --no-alloc-count) features=() ;;
        --gate) gate=1 ;;
        --quick)
            args+=(--quick)
            memo_args+=(--quick)
            ;;
        --out)
            args+=(--out "$2")
            shift
            ;;
        --memo-out)
            memo_args+=(--out "$2")
            shift
            ;;
        *)
            echo "error: unknown argument $1" >&2
            exit 2
            ;;
    esac
    shift
done

if [[ $gate -eq 1 ]]; then
    baseline=$(mktemp)
    trap 'rm -f "$baseline"' EXIT
    cp BENCH_dp.json "$baseline"
    args+=(--gate "$baseline")
fi

cargo build --release -p buffopt-bench --bin dp_snapshot "${features[@]}"
# The memo snapshot times whole optimizer passes; the counting allocator
# is pure overhead there, so it builds without the feature.
cargo build --release -p buffopt-bench --bin memo_snapshot
target/release/dp_snapshot "${args[@]}"
target/release/memo_snapshot "${memo_args[@]}"

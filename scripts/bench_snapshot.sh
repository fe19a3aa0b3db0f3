#!/usr/bin/env bash
# Build and run the performance snapshots:
#
# * BENCH_dp.json — per row (comb sizes, scaling nets, ablation variants,
#   Problem 3 searches), median and minimum wall time of the shipped DP,
#   candidate-pressure stats, the exact DP work counters (merge rows
#   swept, rows dropped at emission, compactions, rows any dominance
#   sweep comparison-sorted), and (with allocation counting compiled in)
#   allocator traffic per run, plus the greedy optimizer's "analysis"
#   timings;
# * BENCH_memo.json — cold vs memo-warm family passes over the perturbed
#   net workload: median pass times, steady-state subtree hit rate, and
#   the memo-table counters. The memo snapshot exits nonzero if the warm
#   hit rate drops below 30 %, if a seeded solution deviates bitwise from
#   its cold twin, or if a small-budget table overruns its byte budget.
#
# usage: scripts/bench_snapshot.sh [--quick] [--out PATH] [--memo-out PATH]
#                                  [--no-alloc-count] [--gate]
#
#   --quick           5 samples per row instead of 31, and only the
#                     64-sink scaling net (CI smoke)
#   --out PATH        where to write the DP JSON (default BENCH_dp.json)
#   --memo-out PATH   where to write the memo JSON (default BENCH_memo.json)
#   --no-alloc-count  skip the counting-allocator build; wall times then
#                     come from the stock allocator (marginally faster)
#   --gate            fail if an exact work counter of the fresh DP
#                     snapshot rises above the committed BENCH_dp.json's
#                     row: merge_rows_swept, prune_rows_sorted,
#                     peak_candidates or merge_enumerated on a size,
#                     scaling or ablation row; dp_runs or merge_rows_swept
#                     on a search row. Timing and allocations are
#                     recorded but not gated. (The committed file is
#                     copied aside first, so the fresh snapshot still
#                     lands in place.)
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

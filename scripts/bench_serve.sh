#!/usr/bin/env bash
# Build and run the serving saturation snapshot:
#
# * BENCH_serve.json — the sharded epoll reactor swept across
#   concurrent-connection tiers (64 → 10240; --quick stops at 1024).
#   Each tier runs a hot cache-hit wave (front-end p50/p99/p999 and
#   throughput) and a cold distinct-net wave (admission shed-rate
#   curve). The bin exits nonzero on any socket error, any shed hot
#   request, or any cold request neither served nor shed; latencies are
#   recorded, not gated.
#
# usage: scripts/bench_serve.sh [--quick] [--out PATH]
#
#   --quick     tiers 64/256/1024 only (CI smoke; the 10k tier needs a
#               raised fd limit and a couple of minutes)
#   --out PATH  where to write the JSON (default BENCH_serve.json)
set -euo pipefail

cd "$(dirname "$0")/.."

args=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick) args+=(--quick) ;;
        --out)
            args+=(--out "$2")
            shift
            ;;
        *)
            echo "error: unknown argument $1" >&2
            exit 2
            ;;
    esac
    shift
done

cargo build --release -p buffopt-bench --bin serve_snapshot
target/release/serve_snapshot "${args[@]}"

#!/usr/bin/env bash
# Paired before/after runs of the repository benchmark (BENCHMARK.json).
#
# A perf claim on a shared host has to come from alternating runs of the
# parent and the change, not from stored medians (perfbench/NOTES.md):
# machine states that last seconds to minutes move one program's
# throughput by 10-35 %. This script makes that pairing mechanical.
#
# usage: scripts/bench_paired.sh PARENT_REV WORKLOAD PAIRS SECONDS
#
#   PARENT_REV  git revision to compare against (e.g. HEAD~1)
#   WORKLOAD    paper500 | large-nets | eco-serve
#   PAIRS       number of pairs; pair i runs seed SEED0+i-1 on both sides
#   SECONDS     --seconds of every single run
#
# It exports PARENT_REV with `git archive` (a plain directory: nothing is
# registered in this repository's .git, so an interrupted run leaves
# nothing to prune), builds perfbench --offline from that tree and from
# the working tree into separate CARGO_TARGET_DIRs, then runs the pairs,
# alternating which side goes first. Each run starts in its own tree, so
# each side reads its own BENCHMARK.json. It prints, per pair, both
# sides' nets_per_s, their ratio and whether the answer digests matched;
# then the median and interquartile range of each side, the median ratio
# and the change's win count, and the median of every other end-to-end
# metric per side. It exits 1 if any run failed, reported an incorrect
# answer, or any pair's digests differed.
#
# The summary is also appended as one row to BENCH_perfbench.json at the
# repository root (created if missing): both revisions, workload, pairs, seconds,
# seeds, per-side nets_per_s median and quartiles, the median ratio and
# its quartiles, the win count, whether every digest agreed and every
# answer was correct, the host's CPU and the UTC date. The change is named
# by HEAD's commit id, so the row is appended only when the working tree
# (untracked files included) matches HEAD apart from BENCH_perfbench.json
# itself; on a dirty tree the pairs still run and print, but no row is
# written. Commit the measured code first, then the rows.
#
# Environment:
#   SEED0             first seed (default 1)
#   BENCH_PAIRED_DIR  work directory for the parent tree, both target
#                     dirs and the raw run outputs; it is kept, so set it
#                     to reuse builds or inspect the runs (default: a
#                     fresh directory under ${TMPDIR:-/tmp}, removed at
#                     exit)
set -euo pipefail

if [[ $# -ne 4 ]]; then
    echo "usage: scripts/bench_paired.sh PARENT_REV WORKLOAD PAIRS SECONDS" >&2
    exit 2
fi
parent_rev=$1
workload=$2
pairs=$3
seconds=$4
seed0=${SEED0:-1}

cd "$(dirname "$0")/.."
repo=$(pwd)
record=$repo/BENCH_perfbench.json
parent_id=$(git rev-parse --short=12 "$parent_rev")
change_id=$(git rev-parse --short=12 HEAD)
dirty=$(git status --porcelain --untracked-files=all -- . ':!BENCH_perfbench.json')
if [[ -n $dirty ]]; then
    echo "working tree differs from HEAD; the summary will not be recorded:" >&2
    head -5 <<<"$dirty" >&2
    record=
fi
host="$(nproc) cores, $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)"

if [[ -n ${BENCH_PAIRED_DIR:-} ]]; then
    work=$BENCH_PAIRED_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d "${TMPDIR:-/tmp}/bench_paired.XXXXXX")
    trap 'rm -rf "$work"' EXIT
fi

# Re-extracting keeps the archive's mtimes, so a reused work directory
# does not rebuild the parent.
rm -rf "$work/parent" "$work/runs"
mkdir -p "$work/parent" "$work/runs"
git archive "$parent_rev" | tar -x -C "$work/parent"

build() { # TREE TARGET_DIR
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml"
}
echo "building parent ($(git rev-parse --short "$parent_rev")) and change (working tree)" >&2
build "$work/parent" "$work/target-parent"
build "$repo" "$work/target-change"

tree_parent=$work/parent
tree_change=$repo
bin_parent=$work/target-parent/release/buffopt-perfbench
bin_change=$work/target-change/release/buffopt-perfbench

status=0
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        tree_var=tree_$side
        bin_var=bin_$side
        out=$work/runs/$i.$side
        if ! (cd "${!tree_var}" && "${!bin_var}" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$out.out" 2>"$out.err"); then
            echo "pair $((i + 1)) $side (seed $seed) failed:" >&2
            tail -5 "$out.err" >&2
            status=1
        fi
    done
    echo "$i $seed ${order[0]}" >>"$work/runs/pairs"
    echo "pair $((i + 1))/$pairs done (seed $seed)" >&2
done

python3 - "$work/runs" "$record" "$parent_id" "$change_id" "$workload" "$seconds" "$host" <<'EOF' || status=1
import datetime, json, os, statistics, sys

runs, record, parent_id, change_id, workload, seconds, host = sys.argv[1:]

def load(i, side):
    try:
        lines = open(f"{runs}/{i}.{side}.out").read().strip().splitlines()
        result = json.loads(lines[-1])
    except (OSError, ValueError, IndexError):
        return None, None
    digest = next((l.split()[1] for l in lines if l.strip().startswith("answer_digest")), None)
    return result, digest

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

ok = True
digests_agree = True
metrics = {"parent": {}, "change": {}}
ratios, wins, seeds = [], 0, []
for line in open(f"{runs}/pairs"):
    i, seed, first = line.split()
    seeds.append(int(seed))
    (rp, dp), (rc, dc) = load(i, "parent"), load(i, "change")
    if rp is None or rc is None:
        print(f"pair {int(i) + 1:>2} seed {seed:>3}: missing result")
        ok = False
        continue
    ok &= bool(rp["correct"] and rc["correct"])
    same = dp is not None and dp == dc
    ok &= same
    digests_agree &= same
    for side, r in (("parent", rp), ("change", rc)):
        for k, v in r["metrics"].items():
            metrics[side].setdefault(k, []).append(v["value"])
    p, c = rp["metrics"]["nets_per_s"]["value"], rc["metrics"]["nets_per_s"]["value"]
    ratios.append(c / p)
    wins += c > p
    print(f"pair {int(i) + 1:>2} seed {seed:>3} first {first:<6}  parent {p:10.3f}  "
          f"change {c:10.3f}  ratio {c / p:6.3f}  digest {'same' if same else 'DIFFERS'}")

if ratios:
    print(f"\nnets_per_s over {len(ratios)} pairs:")
    for side in ("parent", "change"):
        v = metrics[side]["nets_per_s"]
        q1, q3 = quartiles(v)
        print(f"  {side:<6} median {statistics.median(v):10.3f}  IQR {q1:.3f}-{q3:.3f} ({q3 - q1:.3f})")
    q1, q3 = quartiles(ratios)
    print(f"  ratio  median {statistics.median(ratios):10.3f}  IQR {q1:.3f}-{q3:.3f}  "
          f"change wins {wins}/{len(ratios)}")
    print("other end-to-end metrics, median parent -> change:")
    for k in metrics["parent"]:
        if k != "nets_per_s":
            print(f"  {k:<16} {statistics.median(metrics['parent'][k]):12.4f} -> "
                  f"{statistics.median(metrics['change'][k]):12.4f}")

    def summary(v):
        lo, hi = quartiles(v)
        return {"median": round(statistics.median(v), 4), "q1": round(lo, 4), "q3": round(hi, 4)}
    row = {
        "parent": parent_id, "change": change_id, "workload": workload,
        "pairs": len(ratios), "seconds": int(seconds), "seeds": seeds,
        "nets_per_s": {s: summary(metrics[s]["nets_per_s"]) for s in ("parent", "change")},
        "ratio": summary(ratios),
        "change_wins": wins, "digests_agree": digests_agree, "all_ok": ok,
        "host": host,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
    }
    if record:
        rows = json.load(open(record))["rows"] if os.path.exists(record) else []
        rows.append(row)
        with open(record, "w") as f:
            f.write('{"bench": "bench_paired", "rows": [\n')
            f.write(",\n".join(json.dumps(r) for r in rows))
            f.write("\n]}\n")
        print(f"appended the summary to {record}")
    else:
        print("working tree differs from HEAD: summary not recorded")
sys.exit(0 if ok else 1)
EOF
exit $status

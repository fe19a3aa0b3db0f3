#!/usr/bin/env python3
"""Steadiness and determinism check for the repository benchmark.

Runs the command from BENCHMARK.json once per seed on each workload and
prints, per end-to-end metric, the median and the spread (interquartile
range over median, as statistics.quantiles(values, n=4) gives it) beside
the metric's bound. It then reruns the first seed and checks that the
answer digest, buffers_total and optimized_share repeat exactly, and
makes one traced run. Every result must carry exactly the manifest's
metrics of its mode (end_to_end untraced, per_layer traced), each in its
unit.

    python3 perfbench/steadiness.py [--seeds 1-10] [--workloads paper500,eco-serve]
                                    [--save A.json] [--compare A.json]

--save writes the medians; --compare checks that no median is worse
than the saved one by more than the metric's bound.

Run it from the repository root. It exits non-zero when a run fails, a
result misses or adds a metric, a spread exceeds its bound, or a repeat
differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXACT = ("buffers_total", "optimized_share")


def run(bench, workload, seed, trace=0):
    out = subprocess.run(
        bench["command"]
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", str(trace)],
        capture_output=True,
        text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload} seed {seed} trace {trace}: result does not match the manifest\n"
                 f"missing {sorted(want.items() - got.items())}, extra {sorted(got.items() - want.items())}")
    digest = next((l.split()[1] for l in lines if l.strip().startswith("answer_digest")), None)
    return result, digest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default="", help="comma list; default all")
    ap.add_argument("--save", help="write the medians to this JSON file")
    ap.add_argument("--compare", help="medians saved by an earlier --save")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bench = json.load(open("BENCHMARK.json"))
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    before = json.load(open(args.compare)) if args.compare else {}
    medians = {}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    for w in names:
        values, first = {}, None
        for seed in range(lo, hi + 1):
            result, digest = run(bench, w, seed)
            ok &= result["correct"]
            first = first or (result, digest)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bad = spread > bounds[k]
            ok &= not bad
            medians[f"{w}/{k}"] = med
            change = ""
            if f"{w}/{k}" in before:
                old = before[f"{w}/{k}"]
                worse = ((med - old) if lower[k] else (old - med)) / old if old else 0.0
                change = f" worse by {worse:+.4f}" + ("  OVER BOUND" if worse > bounds[k] else "")
                ok &= worse <= bounds[k]
            print(f"{w:10s} {k:16s} median {med:14.6g} spread {spread:.4f} bound {bounds[k]}"
                  + ("  OVER BOUND" if bad else "") + change
                  + "  [" + " ".join(f"{x:.4g}" for x in v) + "]")
        again, digest = run(bench, w, lo)
        same = digest == first[1] and all(
            again["metrics"][k]["value"] == first[0]["metrics"][k]["value"] for k in EXACT)
        ok &= same
        print(f"{w:10s} seed {lo} repeat: digest {digest} {'repeats' if same else 'DIFFERS'}")
        traced, _ = run(bench, w, lo, trace=1)
        ok &= traced["correct"]
        print(f"{w:10s} seed {lo} traced: {len(traced['metrics'])} per-layer metrics, "
              f"correct {traced['correct']}")
    if args.save:
        json.dump(medians, open(args.save, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

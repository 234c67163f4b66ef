#!/usr/bin/env python3
"""A/A protocol: the same commit measured twice, the way the driver does it.

Runs every workload `--runs` times per set with a different seed each
time, two sets, and prints for every end-to-end metric the quartile
spread of each set (distance between the first and third quartile as a
share of the median, quartiles as `statistics.quantiles(values, n=4)`
gives them) and how far the second median is from the first. The
binaries must have been built (`bash benchmark/run.sh --smoke` does).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, log):
    out = subprocess.run(
        ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    if log:
        log.write(out)
        log.flush()
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: not a measurement, see its output")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["failed"] = result["failed"]
    return values


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: all")
    ap.add_argument("--log", type=argparse.FileType("a"), help="append every run's output here")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for w in workloads:
        sets = []
        for s in range(2):
            seeds = range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs)
            sets.append([one_run(w, seed, spec["run_seconds"], args.log) for seed in seeds])
        failed = sorted({r["failed"] for runs in sets for r in runs})
        print(f"{w:14s} failed checks per run: {failed}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = [[r[name] for r in runs] for runs in sets]
            med = [statistics.median(c) for c in cols]
            worse = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
            spreads = [spread(c) for c in cols]
            if name != "setup_s":
                worst = max(worst, *(sp / bound for sp in spreads))
            print(f"{w:14s} {name:12s} bound {bound:.2f}  "
                  f"A median {med[0]:.4f} spread {spreads[0]:.2%} | "
                  f"B median {med[1]:.4f} spread {spreads[1]:.2%} | "
                  f"B worse than A by {worse:+.2%}")
            for label, c in zip("AB", cols):
                q = statistics.quantiles(c, n=4)
                print(f"    {label}: q1 {q[0]:.4f} q3 {q[2]:.4f} values "
                      + " ".join(f"{v:.4f}" for v in c))
            sys.stdout.flush()
    print(f"largest spread over its bound: {worst:.2f} (the target is below 0.33)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check: repeat one workload with successive seeds and print
each end-to-end metric's median, quartiles and spread next to its bound.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 0]
                                [--seconds S]

spread = (Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives
them. A metric is steady when its spread stays under a third of its bound
(setup_s is exempt from the spread rule; its median is compared between
sets of runs instead). --seconds defaults to BENCHMARK.json's run_seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            ["python3", os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines \
            else None
        if not result or not result["correct"]:
            sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
            sys.exit("steady: seed %d failed" % seed)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)

    print("%-14s %12s %12s %12s %8s %6s  %s" % (
        "metric", "median", "Q1", "Q3", "spread", "bound", "verdict"))
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        q1, median, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / median
        if m["name"] == "setup_s":
            verdict = "exempt (median compared across sets)"
        else:
            verdict = "steady" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO NOISY")
        print("%-14s %12.6g %12.6g %12.6g %8.4f %6.2f  %s" % (
            m["name"], median, q1, q3, spread, m["bound"], verdict))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload NAME ...] [--seconds N]

Runs each workload --runs times through perfbench/run.py, each run with the
next seed, and reports for every end-to-end metric the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
against the metric's bound from BENCHMARK.json, plus attempted and failed
operations of every run. A spread above a third of its bound is flagged
"wide", above the bound "OVER". Exits non-zero when a run fails, an output
check fails, the failed share differs between runs, or a spread exceeds its
bound. Every run repeats whole rounds of its workload, and the operations
that can fail do so on inputs --seed does not change, so the failed share
must be exactly the same in every run, whatever the seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, wall, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in workloads:
        runs = []
        print("== %s: %d runs, seeds %d..%d, %d s each" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1, args.seconds))
        for i in range(args.runs):
            seed = args.first_seed + i
            code, result, wall, stderr = run_once(workload, seed, args.seconds)
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print("  seed %d: FAILED (exit %d)\n%s" % (seed, code,
                                                          stderr[-2000:]))
                continue
            runs.append(result)
            print("  seed %3d: attempted %d, failed %d, wall %.1f s" % (
                seed, result["attempted"], result["failed"], wall))
        if not runs:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            ok = False
            print("  failed share differs between runs: %s" % sorted(shares))
        print("  %-26s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            verdict = ""
            if spread > bound:
                verdict = "OVER"
                ok = False
            elif spread > bound / 3:
                verdict = "wide"
            print("  %-26s %12.6g %12.6g %12.6g %7.2f%% %6.2f %s" % (
                name, med, q1, q3, 100 * spread, bound, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

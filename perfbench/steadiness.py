#!/usr/bin/env python3
"""Steadiness check for the repository benchmark (see README.md).

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Run from the root of a checkout. For every workload it makes two sets of
--runs untraced runs, each run with its own seed (set 1: 1000, 1001, ...;
set 2: 1100, 1101, ...), and prints for every
end-to-end metric in BENCHMARK.json each set's median and quartiles, the
spread (interquartile distance as a share of the median) and whether the
two sets agree within the metric's bound:

  * spread ok  -- each set's spread is within the bound;
  * shift ok   -- the second set's median is not worse than the first's
                  by more than the bound, in the metric's "better" sense;
  * failed     -- the share of failed operations is identical in both sets.

Exits 0 when everything agrees, 1 otherwise. The bounds in BENCHMARK.json
were set from this command's output (README "Steadiness").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, check=False)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 4)")
    parser.add_argument("--workloads", default="", help="comma list; default all")
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 (quartiles need them)")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    metrics = bench["end_to_end"]

    everything_ok = True
    for workload in names:
        sets = []
        for s in range(2):
            runs = []
            for i in range(args.runs):
                seed = 1000 + 100 * s + i
                result = run_once(workload, seed, seconds)
                if not result["correct"]:
                    raise SystemExit("incorrect result: %s seed %d" % (workload, seed))
                runs.append(result)
                print("  %s set %d seed %d: %s" % (
                    workload, s + 1, seed,
                    ", ".join("%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                              for m in metrics)), flush=True)
            sets.append(runs)
        print("\n%s (%d runs a set, %d s each)" % (workload, args.runs, seconds))
        print("  %-24s %12s %12s %12s %7s | %12s %12s %12s %7s | %5s %6s %6s" % (
            "metric", "median1", "q1", "q3", "spread", "median2", "q1", "q3", "spread",
            "bound", "spread", "shift"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in sets[0]])
            b = summary([r["metrics"][name]["value"] for r in sets[1]])
            spread_ok = a[3] <= bound and b[3] <= bound
            worse = (b[0] - a[0]) / a[0] if m["better"] == "lower" else (a[0] - b[0]) / a[0]
            shift_ok = worse <= bound
            everything_ok &= spread_ok and shift_ok
            print("  %-24s %12.6g %12.6g %12.6g %7.3f | %12.6g %12.6g %12.6g %7.3f | %5.2f %6s %6s" % (
                name, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], bound,
                "ok" if spread_ok else "NO", "ok" if shift_ok else "NO"))
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        failed_ok = shares[0] == shares[1]
        everything_ok &= failed_ok
        print("  failed share: %r vs %r -> %s" % (shares[0], shares[1],
                                                  "ok" if failed_ok else "NO"))
    print("\nsteady" if everything_ok else "\nNOT steady")
    return 0 if everything_ok else 1


if __name__ == "__main__":
    sys.exit(main())

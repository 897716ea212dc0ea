#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload namespace_churn --seeds 1-5
    python3 perfbench/spread.py --workload stat_cold --seeds 1-10 --trace 1

Runs perfbench/run.py once per seed and prints, for every metric, the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. End-to-end
metrics also show the bound BENCHMARK.json fixes; a spread at or above it
means the metric cannot resolve a change of that size. Exit status 1 when a
run fails or an end-to-end spread other than setup_s reaches its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        if proc.returncode != 0:
            ok = False
            print("seed %d failed (exit %d): %s" %
                  (seed, proc.returncode, proc.stderr.strip()[-500:]))
            continue
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %.0fs" % (seed, time.time() - start), flush=True)

    for name, vals in values.items():
        median = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and median:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / median
        bound = bounds.get(name)
        note = "" if bound is None else "  bound %.2f" % bound
        if bound is not None and name != "setup_s" and not spread < bound:
            note += "  <-- spread reaches bound"
            ok = False
        print("%-34s median %-14.6g spread %6.3f%s\n    %s" %
              (name, median, spread, note,
               " ".join("%.4g" % v for v in vals)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

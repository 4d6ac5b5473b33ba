#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the root of a checkout:

    python3 pipebench/spread.py --workloads city-week,abm-month --seeds 1-10

For every workload and end-to-end metric it prints the median of the
per-run values, the quartiles (statistics.quantiles(values, n=4)) and the
spread, (Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
--out writes every run's result line, with its seed, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--out")
    args = parser.parse_args()

    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    runs = {}
    all_correct = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            started = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", args.trace],
                capture_output=True, text=True)
            elapsed = time.time() - started
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            print("%s seed %d: exit %d, %.1f s, correct=%s attempted=%s "
                  "failed=%s" % (workload, seed, proc.returncode, elapsed,
                                 result.get("correct"), result.get("attempted"),
                                 result.get("failed")), flush=True)
            if proc.returncode != 0 or not result.get("correct"):
                sys.stderr.write(proc.stderr[-2000:])
                all_correct = False
            result["seed"] = seed
            result["elapsed_s"] = elapsed
            runs[workload].append(result)
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in runs[workload] if "metrics" in r]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds[metric["name"]]
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else (
                    "WIDE" if spread <= bound else "OVER")
            print("  %-30s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                  " bound %s %s" % (metric["name"], median, q1, q3, spread,
                                    bound, flag))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle, indent=1)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

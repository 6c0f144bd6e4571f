#!/usr/bin/env python3
"""Runs the benchmark's end-to-end metrics over several seeds and
reports each metric's median and quartile spread against its bound.

Run from the repository root:

    python3 perfbench/spread.py                        # every workload, seeds 1-10
    python3 perfbench/spread.py --seeds 104729         # the held-out seed
    python3 perfbench/spread.py --workloads array-256 --seeds 1,2,3,4,5

Each run is the BENCHMARK.json command with its run_seconds and
--trace 0. The spread of a metric is (Q3 - Q1) / median over the
seeds, with the quartiles of Python's statistics.quantiles(values,
n=4); a spread at or above a third of the metric's bound is flagged.
Seed 104729 is held out: it is never used while tuning the benchmark
or a change, so a claimed gain can be re-checked on it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: output checks failed: {lines[-1]}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = bench["end_to_end"]

    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in seeds:
            result = run_once(bench, workload, seed)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{workload} seed {seed}: {result['attempted']} checked, "
                  f"{result['failed']} failed", flush=True)
        print(f"\n{workload} ({len(seeds)} seeds)")
        print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            line = f"{m['name']:<16} {med:>12.5g}"
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                flag = "  <-- at or above a third of the bound" if spread >= m["bound"] / 3 else ""
                line += f" {spread:>8.4f} {m['bound']:>6.3f}{flag}"
            print(line + f" {m['unit']}  [" + " ".join(f"{v:.4g}" for v in vals) + "]")
        print(flush=True)


if __name__ == "__main__":
    main()

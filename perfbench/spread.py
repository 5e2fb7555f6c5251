#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds <s>] [--trace 0|1]

Runs `perfbench/run.py` once per seed (first-seed, first-seed + 1, ...),
then prints, for every metric, its median, the distance between the first
and third quartiles (Python's `statistics.quantiles(values, n=4)`) as a
share of the median, and, for the end-to-end metrics, that share against
the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        shown = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                         if k in bounds or args.trace == "1")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
        if not result["correct"]:
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else f"  bound {bound}  spread/bound {spread / bound:.2f}"
        print(f"{name:<36} median {med:<14.6g} spread {spread:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

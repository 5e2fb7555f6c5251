#!/usr/bin/env python3
"""Same-host A/B of the benchmark: this checkout against a base commit.

Usage, from anywhere in the repository:

    python3 scripts/perf_ab.py <base-rev> [--seconds S]

Checks <base-rev> out into a temporary git worktree. Then, for every
workload in BENCHMARK.json, runs the benchmark's `command` in ten
interleaved pairs, alternating which side goes first. Each side runs from
its own root with its own CARGO_TARGET_DIR. `--seconds` defaults to
BENCHMARK.json's `run_seconds`.

For every end-to-end metric it prints the base and head medians, their
ratio (head / base), the base runs' interquartile range as a share of
their median, the metric's bound and a verdict:

    ok          head is not worse than base by more than the bound;
    REGRESSED   head is worse by more than the bound, and the base
                spread is within the bound;
    unresolved  the base spread is wider than the bound, so the runs
                cannot tell a regression from noise (unless every head
                run is better than every base run, which reads "ok").

Exits non-zero when any run is not `"correct": true`, any run has failed
points, or any metric REGRESSED.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def verdict(metric, base, head):
    """Judges one metric's samples. Returns (verdict, base median,
    head median, base IQR as a share of its median)."""
    sign = 1 if metric["better"] == "higher" else -1
    bound = metric["bound"]
    b, h = statistics.median(base), statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = (q3 - q1) / abs(b) if b else (0.0 if q3 == q1 else math.inf)
    all_better = min(sign * x for x in head) > max(sign * x for x in base)
    if spread > bound and not all_better:
        return "unresolved", b, h, spread
    worse_by = sign * (b - h)
    return ("REGRESSED" if worse_by > bound * abs(b) else "ok"), b, h, spread


def judge(end_to_end, base_runs, head_runs):
    """Judges one workload's runs (the benchmark's JSON results).
    Returns (report lines, passed)."""
    lines, passed = [], True
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for i, run in enumerate(runs, 1):
            if run["correct"] is not True or run["failed"] > 0:
                lines.append(f"  {side} run {i}: correct={run['correct']} "
                             f"failed={run['failed']} of {run['attempted']}")
                passed = False
    lines.append(f"  {'metric':<36} {'base median':>12} {'head median':>12} "
                 f"{'ratio':>7} {'base IQR':>9} {'bound':>6}  verdict")
    for metric in end_to_end:
        name = metric["name"]
        base = [run["metrics"][name]["value"] for run in base_runs]
        head = [run["metrics"][name]["value"] for run in head_runs]
        v, b, h, spread = verdict(metric, base, head)
        passed = passed and v != "REGRESSED"
        ratio = h / b if b else math.nan
        lines.append(f"  {name:<36} {b:>12.6g} {h:>12.6g} {ratio:>7.3f} "
                     f"{spread:>9.3f} {metric['bound']:>6}  {v}")
    return lines, passed


def run_once(command, root, target, workload, seconds):
    """Runs the benchmark once from `root` and returns its JSON result."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [*command, "--workload", workload, "--seconds", f"{seconds:g}"]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"perf_ab: {' '.join(cmd)} in {root} exited with "
                 f"{out.returncode}\n{out.stderr[-4000:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_rev")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    passed = True
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        base_root = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--quiet", "--detach",
                        str(base_root), args.base_rev], cwd=ROOT, check=True)
        try:
            sides = {"base": (base_root, Path(tmp) / "bench_build"),
                     "head": (ROOT, ROOT / ".bench_build")}
            for wl in spec["workloads"]:
                name = wl["name"]
                runs = {"base": [], "head": []}
                for pair in range(PAIRS):
                    order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                    for side in order:
                        root, target = sides[side]
                        runs[side].append(
                            run_once(spec["command"], root, target, name, seconds))
                    print(f"{name}: pair {pair + 1}/{PAIRS} done", file=sys.stderr,
                          flush=True)
                lines, ok = judge(spec["end_to_end"], runs["base"], runs["head"])
                passed = passed and ok
                print(f"{name} ({PAIRS} pairs, {seconds:g} s runs, base {args.base_rev})")
                print("\n".join(lines), flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_root)],
                           cwd=ROOT, check=False)
    print("perf_ab: " + ("pass" if passed else "FAIL"))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

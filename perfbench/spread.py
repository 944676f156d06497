#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics on one workload.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs run.py --trace 0 once per seed (first-seed, first-seed + 1, ...) and
prints, per metric, the median, the quartiles, and the quartile distance
as a share of the median next to a third of the metric's bound in
BENCHMARK.json. Exits 1 when any spread but setup_s's exceeds its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(manifest["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name} {values[name][-1]:.4f}" for name in bounds), flush=True)

    worst = 0.0
    print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for name, bound in bounds.items():
        q1, q2, q3 = summary.quartiles(values[name])
        spread = summary.relative_spread(values[name])
        if name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name:14s} {q2:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.4f} {bound / 3:8.4f}")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())

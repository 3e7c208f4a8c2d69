"""Run-to-run spread of the benchmark's metrics over several seeds.

Runs ``run.py`` once per seed on one workload and prints, per metric, the
median and the distance between the first and third quartile as a share
of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from ``BENCHMARK.json``.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload solve-small --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: {result['failed']} of "
                  f"{result['attempted']} failed", file=sys.stderr)
            return 1
        for metric in metrics:
            got = result["metrics"][metric["name"]]
            if got["unit"] != metric["unit"]:
                raise SystemExit(f"{metric['name']}: unit {got['unit']}")
            values[metric["name"]].append(got["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={vals[-1]:.4g}" for name, vals in values.items()
            if not args.trace), flush=True)
    for metric in metrics:
        vals = values[metric["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = metric.get("bound")
        note = "" if bound is None else f"  bound {bound:.2f}" + (
            "  OK" if spread < bound / 3 else "  WIDE")
        print(f"{args.workload:16s} {metric['name']:34s} median "
              f"{median:12.5g}  iqr/median {spread:7.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

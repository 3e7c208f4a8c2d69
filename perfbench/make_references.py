"""Regenerate the committed reference optima of the benchmark's pools.

Each instance is solved by two independent exact engines
(``colored-ssb-bidir`` and ``colored-ssb-labels``), plus the pruned Pareto
DP (``pareto-dp-pruned``) where n <= 20.  Generation fails on the first
disagreement, so a committed optimum is always one at least two engines
reached separately.

Usage (from the repository root)::

    python3 perfbench/make_references.py [--pool unique|small|scattered]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import instances  # noqa: E402

ENGINES = ("colored-ssb-bidir", "colored-ssb-labels")
DP_ENGINE = "pareto-dp-pruned"
DP_MAX_N = 20


def reference_row(seed: int, n: int, k: int, scatter: float) -> list:
    from repro.core.solver import solve
    from repro.model.serialization import problem_from_json

    text = instances.generate_json(seed, n, k, scatter)
    engines = ENGINES + ((DP_ENGINE,) if n <= DP_MAX_N else ())
    objectives = {}
    for engine in engines:
        result = solve(problem_from_json(text), method=engine)
        if result.status != "optimal":
            raise SystemExit(f"seed {seed} n={n}: {engine} returned "
                             f"{result.status}")
        objectives[engine] = result.objective
    if len(set(objectives.values())) != 1:
        raise SystemExit(f"seed {seed} n={n} k={k} scatter={scatter}: "
                         f"exact engines disagree: {objectives}")
    return [seed, n, k, scatter, objectives[ENGINES[0]],
            instances.instance_digest(text)]


def write_pool(pool: str) -> None:
    specs = instances.POOL_SPECS[pool]()
    started = time.perf_counter()
    rows = [reference_row(*spec) for spec in specs]
    path = instances.reference_path(pool)
    lines = ",\n".join("  " + json.dumps(row) for row in rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"pool": "{pool}", "engines": '
                     f'{json.dumps(list(ENGINES) + [DP_ENGINE])}, '
                     f'"dp_max_n": {DP_MAX_N},\n"rows": [\n{lines}\n]}}\n')
    print(f"{pool}: {len(rows)} references in "
          f"{time.perf_counter() - started:.1f}s -> {path}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", choices=sorted(instances.POOL_SPECS),
                        action="append")
    args = parser.parse_args()
    os.makedirs(instances.REFERENCE_DIR, exist_ok=True)
    for pool in args.pool or sorted(instances.POOL_SPECS):
        write_pool(pool)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Instance pools, seeded workload streams and reference optima.

Every instance a workload can send is a row of a committed reference file
under ``perfbench/references/``: the generator parameters
(``random_problem`` seed, size, satellites, scatter), the optimum two
independent exact engines agreed on, and a short SHA-256 of the
instance's compact JSON.  A workload seed only chooses *which* rows are
sent and in what order, so every operation of every seed is checked
against a committed optimum, and the same seed always yields
byte-identical inputs (the hash is re-checked on every generation).

The program under test only ever receives the generated instance JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "references")

#: Relative tolerance of the objective check.  Exact engines agree bit for
#: bit on these pools; the slack only absorbs a tie between two optimal
#: placements whose loads are summed in a different order.
OBJECTIVE_RTOL = 1e-9

#: Number of distinct instances in the gateway-hot working set.
HOT_SET_SIZE = 32
#: Zipf exponent of the gateway-hot popularity (rank r drawn ~ 1/r^s).
HOT_ZIPF_S = 1.1


@dataclass(frozen=True)
class Instance:
    """One pool row: generator parameters plus the committed optimum."""

    pool: str
    index: int
    seed: int
    n: int
    k: int
    scatter: float
    objective: float
    digest: str

    def problem_json(self) -> str:
        """Generate the instance and check it against the committed hash."""
        text = generate_json(self.seed, self.n, self.k, self.scatter)
        if instance_digest(text) != self.digest:
            raise RuntimeError(
                f"{self.pool}[{self.index}] (seed {self.seed}, n={self.n}) "
                f"no longer generates the committed instance: the generator "
                f"or serialiser changed, so the reference optima are stale")
        return text

    def matches(self, objective) -> bool:
        if not isinstance(objective, (int, float)):
            return False
        return abs(objective - self.objective) <= \
            OBJECTIVE_RTOL * max(1.0, abs(self.objective))


def generate_json(seed: int, n: int, k: int, scatter: float) -> str:
    """Compact JSON of one ``random_problem`` instance."""
    from repro.model.serialization import problem_to_json
    from repro.workloads.generators import random_problem

    problem = random_problem(n_processing=n, n_satellites=k, seed=seed,
                             sensor_scatter=scatter)
    return problem_to_json(problem, indent=None)


def instance_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reference_path(pool: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{pool}.json")


def load_pool(pool: str, path: str = "") -> List[Instance]:
    with open(path or reference_path(pool), "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return [Instance(pool, index, seed, n, k, scatter, objective, digest)
            for index, (seed, n, k, scatter, objective, digest)
            in enumerate(data["rows"])]


# ------------------------------------------------------------- pool specs
# (pool name, [(seed, n, k, scatter), ...]) — the rows make_references.py
# solves.  Seeds are disjoint across pools.

def unique_specs() -> List[Tuple[int, int, int, float]]:
    """gateway-unique: n 8-12, 3 satellites, scatter 0.3."""
    return [(100_000 + i, 8 + i % 5, 3, 0.3) for i in range(4000)]


def small_specs() -> List[Tuple[int, int, int, float]]:
    """solve-small: n 8-20 x k {2,3,4} x scatter {0, 0.3, 0.6}, 4 each."""
    specs = []
    seed = 200_000
    for rep in range(4):
        for n in range(8, 21):
            for k in (2, 3, 4):
                for scatter in (0.0, 0.3, 0.6):
                    specs.append((seed, n, k, scatter))
                    seed += 1
    return specs


def scattered_specs() -> List[Tuple[int, int, int, float]]:
    """solve-scattered: fully scattered n=50, 4 satellites, seeds 0-19."""
    return [(seed, 50, 4, 1.0) for seed in range(20)]


POOL_SPECS = {
    "unique": unique_specs,
    "small": small_specs,
    "scattered": scattered_specs,
}


# ------------------------------------------------------------ seeded streams

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def unique_stream(pool: Sequence[Instance], seed: int,
                  count: int) -> List[Instance]:
    """``count`` distinct pool rows in a seeded order (no repeats)."""
    return _rng("gateway-unique", seed).sample(list(pool),
                                               min(count, len(pool)))


def hot_stream(pool: Sequence[Instance], seed: int,
               count: int) -> Tuple[List[Instance], List[Instance]]:
    """``(working_set, requests)``: 32 rows, then Zipf-popular draws.

    The working set and its popularity ranks are the same for every seed;
    the seed draws the request sequence.  With a seeded set, the cost of
    the few top-ranked instances (a quarter of all requests go to rank 1)
    moved throughput by 20% between seeds.
    """
    working_set = _rng("gateway-hot-set", 0).sample(list(pool), HOT_SET_SIZE)
    weights = [1.0 / (rank + 1) ** HOT_ZIPF_S for rank in range(HOT_SET_SIZE)]
    return working_set, _rng("gateway-hot", seed).choices(
        working_set, weights=weights, k=count)


def small_stream(pool: Sequence[Instance], seed: int,
                 count: int) -> List[Instance]:
    """``count`` uniform draws (with replacement) from the small pool."""
    rng = _rng("solve-small", seed)
    return [rng.choice(pool) for _ in range(count)]


def pass_stream(pool: Sequence[Instance], seed: int,
                passes: int) -> List[Instance]:
    """Whole passes over the pool, each in its own seeded order."""
    rng = _rng("solve-scattered", seed)
    out: List[Instance] = []
    for _ in range(passes):
        order = list(pool)
        rng.shuffle(order)
        out.extend(order)
    return out


def instance_texts(instances: Sequence[Instance]) -> Dict[int, str]:
    """Generated JSON per distinct pool index (each generated once)."""
    texts: Dict[int, str] = {}
    for instance in instances:
        if instance.index not in texts:
            texts[instance.index] = instance.problem_json()
    return texts

"""Heuristics for the DAG-tasks-to-DAG-resources problem (paper §6).

Three solvers of increasing cost:

* :func:`heft_placement` — HEFT-style list scheduling: rank tasks by upward
  rank (critical-path length to a sink), then greedily place each task on the
  feasible resource minimising its earliest finish time;
* :func:`genetic_dag_placement` — a genetic algorithm over the mapping vector
  (the approach the paper cites for the general problem);
* :func:`exhaustive_dag_placement` — exact enumeration for small instances,
  the oracle the heuristics are validated against in the test-suite.

HEFT and the GA take an optional :class:`~repro.core.context.SolveContext`.
HEFT holds no placement until its last task is placed, so it only
checkpoints (an expired budget raises); the GA polls once per generation and
returns the best genome evaluated so far with ``interrupted`` set.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.context import SolveContext
from repro.extensions.dag_model import DAGPlacement, DAGTaskGraph, ResourceGraph


def _candidate_resources(tasks: DAGTaskGraph, resources: ResourceGraph,
                         task_id: str) -> List[str]:
    pinned = tasks.task(task_id).pinned_to
    if pinned is not None:
        return [pinned]
    return resources.resource_ids()


def upward_ranks(tasks: DAGTaskGraph, resources: ResourceGraph) -> Dict[str, float]:
    """HEFT upward rank: mean execution time plus the heaviest path to a sink."""
    speeds = [resources.resource(r).speed for r in resources.resource_ids()]
    mean_speed = sum(speeds) / len(speeds)
    ranks: Dict[str, float] = {}
    for task_id in reversed(tasks.topological_order()):
        own = tasks.task(task_id).work / mean_speed
        successors = tasks.successors(task_id)
        tail = max((ranks[s] + tasks.data_volume(task_id, s) for s in successors), default=0.0)
        ranks[task_id] = own + tail
    return ranks


def heft_placement(tasks: DAGTaskGraph, resources: ResourceGraph,
                   context: Optional[SolveContext] = None
                   ) -> Tuple[DAGPlacement, Dict[str, object]]:
    """Greedy earliest-finish-time list scheduling (HEFT-style)."""
    ranks = upward_ranks(tasks, resources)
    order = sorted(tasks.task_ids(), key=lambda t: ranks[t], reverse=True)
    # keep dependency order: a task can only be placed after its predecessors
    placed_order: List[str] = []
    remaining = set(order)
    while remaining:
        progressed = False
        for task_id in order:
            if task_id in remaining and all(p not in remaining for p in tasks.predecessors(task_id)):
                placed_order.append(task_id)
                remaining.discard(task_id)
                progressed = True
        if not progressed:  # pragma: no cover - impossible for DAGs
            raise RuntimeError("cyclic dependency encountered")

    mapping: Dict[str, str] = {}
    resource_free: Dict[str, float] = {r: 0.0 for r in resources.resource_ids()}
    finish: Dict[str, float] = {}

    for task_id in placed_order:
        if context is not None:
            context.checkpoint()
        best_resource = None
        best_finish = float("inf")
        for resource_id in _candidate_resources(tasks, resources, task_id):
            ready = 0.0
            feasible = True
            for producer in tasks.predecessors(task_id):
                transfer = resources.transfer_time(mapping[producer], resource_id,
                                                   tasks.data_volume(producer, task_id))
                if transfer == float("inf"):
                    feasible = False
                    break
                ready = max(ready, finish[producer] + transfer)
            if not feasible:
                continue
            begin = max(ready, resource_free[resource_id])
            end = begin + tasks.task(task_id).work / resources.resource(resource_id).speed
            if end < best_finish:
                best_finish = end
                best_resource = resource_id
        if best_resource is None:
            raise RuntimeError(f"no feasible resource for task {task_id!r}")
        mapping[task_id] = best_resource
        finish[task_id] = best_finish
        resource_free[best_resource] = best_finish

    placement = DAGPlacement(tasks, resources, mapping)
    return placement, {"makespan": placement.makespan(), "order": placed_order}


def random_dag_placement(tasks: DAGTaskGraph, resources: ResourceGraph,
                         seed: Optional[int] = None,
                         max_attempts: int = 500) -> DAGPlacement:
    """A random feasible placement (respects pinning and link availability)."""
    rng = random.Random(seed)
    for _ in range(max_attempts):
        mapping = {t: rng.choice(_candidate_resources(tasks, resources, t))
                   for t in tasks.task_ids()}
        placement = DAGPlacement(tasks, resources, mapping)
        if placement.is_feasible():
            return placement
    raise RuntimeError("could not sample a feasible placement; the resource graph may be too sparse")


def exhaustive_dag_placement(tasks: DAGTaskGraph, resources: ResourceGraph
                             ) -> Tuple[DAGPlacement, Dict[str, object]]:
    """Exact minimum-makespan placement by enumeration (small instances only)."""
    task_ids = tasks.task_ids()
    candidates = [_candidate_resources(tasks, resources, t) for t in task_ids]
    best: Optional[DAGPlacement] = None
    best_makespan = float("inf")
    enumerated = 0
    for combo in itertools.product(*candidates):
        enumerated += 1
        placement = DAGPlacement(tasks, resources, dict(zip(task_ids, combo)))
        if not placement.is_feasible():
            continue
        makespan = placement.makespan()
        if makespan < best_makespan:
            best, best_makespan = placement, makespan
    if best is None:
        raise RuntimeError("no feasible placement exists")
    return best, {"enumerated": enumerated, "makespan": best_makespan}


def genetic_dag_placement(tasks: DAGTaskGraph, resources: ResourceGraph,
                          population_size: int = 30, generations: int = 40,
                          mutation_rate: float = 0.1, seed: Optional[int] = None,
                          context: Optional[SolveContext] = None
                          ) -> Tuple[DAGPlacement, Dict[str, object]]:
    """Genetic algorithm over the task->resource mapping vector."""
    rng = random.Random(seed)
    task_ids = tasks.task_ids()
    candidates = [_candidate_resources(tasks, resources, t) for t in task_ids]

    def random_genome() -> List[str]:
        return [rng.choice(c) for c in candidates]

    def fitness(genome: Sequence[str]) -> float:
        placement = DAGPlacement(tasks, resources, dict(zip(task_ids, genome)))
        if not placement.is_feasible():
            return float("inf")
        return placement.makespan()

    population = [random_genome() for _ in range(population_size)]
    scores = [fitness(g) for g in population]
    evaluations = population_size
    interrupted: Optional[str] = None

    for _ in range(generations):
        if context is not None:
            interrupted = context.interrupted()
            if interrupted is not None:
                break
        ranked = sorted(range(population_size), key=lambda i: scores[i])
        elite = [list(population[i]) for i in ranked[:2]]
        next_population = elite[:]
        while len(next_population) < population_size:
            a, b = (population[rng.choice(ranked[:max(2, population_size // 2)])] for _ in range(2))
            cut = rng.randrange(1, len(task_ids)) if len(task_ids) > 1 else 0
            child = list(a[:cut]) + list(b[cut:])
            for i, options in enumerate(candidates):
                if rng.random() < mutation_rate:
                    child[i] = rng.choice(options)
            next_population.append(child)
        population = next_population
        scores = [fitness(g) for g in population]
        evaluations += population_size

    best_index = min(range(population_size), key=lambda i: scores[i])
    best = DAGPlacement(tasks, resources, dict(zip(task_ids, population[best_index])))
    info: Dict[str, object] = {"makespan": scores[best_index],
                               "evaluations": evaluations}
    if interrupted is not None:
        info["interrupted"] = interrupted
    return best, info

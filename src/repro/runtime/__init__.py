"""Batch-solving runtime.

The runtime layer turns the one-instance-at-a-time solver facade into a
production execution layer for *fleets* of instances:

* :mod:`~repro.runtime.registry` — a declarative **solver registry** mapping
  method names (and their aliases) to callables plus capability/complexity
  metadata.  :func:`repro.core.solver.solve` dispatches through it.
* :mod:`~repro.runtime.cache` — a **result cache** (in-memory LRU, optional
  on-disk JSON store) keyed by a canonical problem hash, so repeated sweeps
  skip instances that were already solved.
* :mod:`~repro.runtime.runner` — a **BatchRunner** that fans instances across
  ``concurrent.futures.ProcessPoolExecutor`` workers with chunking, per-task
  timeouts and explicit RNG seeding for reproducible stochastic baselines.
"""

from repro.runtime.registry import (
    SolverRegistry,
    SolverSpec,
    UnknownSolverError,
    default_registry,
)
from repro.runtime.cache import (
    JSONFileCache,
    LRUResultCache,
    TieredResultCache,
    cache_get_with_source,
    make_cache_entry,
    options_fingerprint,
    problem_fingerprint,
    result_key,
    shard_of,
)
from repro.runtime.payload import (
    PreparedTask,
    prepare_task,
    prepare_tasks,
    solve_payload,
    task_payload,
)
from repro.runtime.runner import (
    BatchReport,
    BatchRunner,
    BatchTask,
    BatchItemResult,
    derive_seed,
    serial_sweep,
)

__all__ = [
    "SolverRegistry",
    "SolverSpec",
    "UnknownSolverError",
    "default_registry",
    "JSONFileCache",
    "LRUResultCache",
    "TieredResultCache",
    "cache_get_with_source",
    "make_cache_entry",
    "options_fingerprint",
    "problem_fingerprint",
    "result_key",
    "shard_of",
    "PreparedTask",
    "prepare_task",
    "prepare_tasks",
    "solve_payload",
    "task_payload",
    "BatchReport",
    "BatchRunner",
    "BatchTask",
    "BatchItemResult",
    "derive_seed",
    "serial_sweep",
]

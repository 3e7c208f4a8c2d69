"""Parallel batch solving.

:class:`BatchRunner` fans a fleet of :class:`~repro.model.problem.AssignmentProblem`
instances across ``concurrent.futures.ProcessPoolExecutor`` workers:

* instances cross the process boundary as canonical JSON (the same format the
  CLI reads/writes), so workers never depend on picklability of live objects;
* tasks are grouped into **chunks** to amortise IPC overhead;
* a task's ``deadline_s`` rides inside its payload and becomes a cooperative
  :class:`~repro.core.context.SolveContext` in the worker: every solver polls
  it and returns its best incumbent (or a ``timeout`` result) instead of
  outliving the budget, so no worker is ever killed;
* stochastic methods (per the registry's ``stochastic`` flag) receive an
  **explicitly derived seed** — a stable hash of ``(base_seed, problem hash,
  method, options)`` — so a sweep is reproducible and *order-independent*:
  shuffling the task list cannot change any task's seed or result;
* an optional **result cache** is consulted before dispatch and fed after, so
  a warm repeat of a sweep returns identical objectives without re-solving,
  and duplicate instances inside one batch are solved only once.

``workers=0`` (the default) solves in-process — no pickling and no JSON
round trip: the loop hands each decoded instance and its resolved spec to
:func:`~repro.runtime.payload.solve_task`, the function every pool child and
spool worker ends in — which is what the experiment drivers use unless
``REPRO_BATCH_WORKERS`` says otherwise.

Whichever path ran it, a task comes back as one outcome dict (a solve, a
cache entry read back, or a solve error with its diagnostics), and
:func:`batch_item` turns it into a :class:`BatchItemResult`;
:class:`~repro.distributed.service.SolveService` builds its items and its
report with the same :func:`batch_item` and :meth:`BatchReport.tally`.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core.dwg import SSBWeighting
from repro.model.problem import AssignmentProblem
from repro.observability.metrics import default_metrics
from repro.observability.tracing import Tracer
from repro.runtime.cache import ResultCache, cache_get_with_source
from repro.runtime.payload import (
    PreparedTask,
    cache_outcome,
    derive_seed,
    error_outcome,
    outcome_from_entry,
    prepare_tasks,
    solve_payload_chunk as _solve_payload_chunk,
    solve_task,
    task_payload,
)
from repro.runtime.registry import SolverRegistry, default_registry

WORKERS_ENV_VAR = "REPRO_BATCH_WORKERS"

__all__ = [
    "BatchTask", "BatchItemResult", "BatchReport", "BatchRunner",
    "derive_seed", "serial_sweep",
]


@dataclass
class BatchTask:
    """One unit of work: solve ``problem`` with ``method``."""

    problem: AssignmentProblem
    method: str = "colored-ssb"
    options: Dict[str, Any] = field(default_factory=dict)
    weighting: Optional[SSBWeighting] = None
    seed: Optional[int] = None          #: explicit seed (stochastic methods)
    tag: Optional[str] = None           #: caller-provided identifier
    deadline_s: Optional[float] = None  #: cooperative per-task budget (anytime
                                        #: specs return a feasible incumbent)


@dataclass
class BatchItemResult:
    """Outcome of one task, in input order."""

    index: int
    tag: Optional[str]
    method: str
    key: str
    objective: Optional[float] = None
    elapsed_s: float = 0.0
    cached: bool = False
    cache_source: Optional[str] = None  #: "memory" / "disk" / "batch" (in-batch dup)
    error: Optional[str] = None
    seed: Optional[int] = None
    placement: Optional[Dict[str, str]] = None
    details: Dict[str, Any] = field(default_factory=dict)
    assignment: Optional[Any] = None        #: reconstructed Assignment
    status: Optional[str] = None            #: optimal/feasible/timeout/cancelled
    incumbent_history: List[Any] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def partial(self) -> bool:
        """A valid but deadline/cancel-interrupted (non-proven) answer."""
        return self.ok and self.details.get("interrupted") is not None


@dataclass
class BatchReport:
    """All task outcomes plus sweep-level accounting.

    ``cache_hits`` counts every task served without running a solver; the
    three ``cache_*_hits`` fields split it by where the entry came from —
    the in-memory tier, the on-disk tier, or an identical task earlier in
    the *same* batch (in-batch dedup fan-out).
    """

    results: List[BatchItemResult]
    wall_s: float
    workers: int
    cache_hits: int
    solved: int
    failed: int
    cache_memory_hits: int = 0
    cache_disk_hits: int = 0
    cache_batch_hits: int = 0

    @classmethod
    def tally(cls, items: List[BatchItemResult], wall_s: float,
              workers: int) -> "BatchReport":
        """Count a finished batch's items into a report."""
        by_source = {"memory": 0, "disk": 0, "batch": 0}
        for item in items:
            if item.cached:
                source = item.cache_source or "memory"
                by_source[source] = by_source.get(source, 0) + 1
        return cls(results=items, wall_s=wall_s, workers=workers,
                   cache_hits=sum(1 for item in items if item.cached),
                   solved=sum(1 for item in items
                              if item.ok and not item.cached),
                   failed=sum(1 for item in items if not item.ok),
                   cache_memory_hits=by_source["memory"],
                   cache_disk_hits=by_source["disk"],
                   cache_batch_hits=by_source["batch"])

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def objectives(self) -> List[Optional[float]]:
        return [r.objective for r in self.results]

    def summary(self) -> str:
        if self.cache_hits:
            # hits from stores that cannot report their tier (plain get/put
            # caches) are in the total but none of the three buckets
            other = self.cache_hits - (self.cache_memory_hits
                                       + self.cache_disk_hits
                                       + self.cache_batch_hits)
            split = (f"{self.cache_memory_hits} memory, "
                     f"{self.cache_disk_hits} disk, "
                     f"{self.cache_batch_hits} batch-dedup")
            if other > 0:
                split += f", {other} untiered"
            cached = f"{self.cache_hits} cached ({split})"
        else:
            cached = "0 cached"
        return (f"{len(self.results)} tasks in {self.wall_s:.3f}s "
                f"({self.workers} workers): {self.solved} solved, "
                f"{cached}, {self.failed} failed")


def batch_item(index: int, prep: PreparedTask, outcome: Mapping[str, Any],
               cache_source: Optional[str] = None) -> BatchItemResult:
    """One task's result, built from its outcome dict.

    ``outcome`` is what :func:`~repro.runtime.payload.solve_task` returned,
    a cache entry read back by
    :func:`~repro.runtime.payload.outcome_from_entry`, or a spool outcome;
    ``cache_source`` marks an in-batch duplicate (``"batch"``) served by
    its leader's outcome.
    """
    item = BatchItemResult(
        index=index, tag=prep.task.tag, method=prep.spec.name, key=prep.key,
        seed=prep.seed, status=outcome.get("status"),
        details=dict(outcome.get("details") or {}),
        incumbent_history=list(outcome.get("incumbent_history") or ()))
    if not outcome.get("ok", False):
        item.error = outcome.get("error", "unknown error")
        if outcome.get("error_kind"):
            # poison / quarantined / max_requeues / result_corrupted — kept
            # in details so report consumers can triage by class
            item.details["error_kind"] = outcome["error_kind"]
        return item
    if cache_source is None and outcome.get("cached"):
        cache_source = outcome.get("cache_source") or "cache"
    item.cached = cache_source is not None
    item.cache_source = cache_source
    item.objective = outcome.get("objective")
    item.elapsed_s = outcome.get("elapsed_s", 0.0)
    item.placement = dict(outcome.get("placement") or {})
    if item.placement:
        from repro.core.assignment import Assignment

        item.assignment = Assignment(problem=prep.task.problem,
                                     placement=item.placement)
    return item


# -------------------------------------------------------------------- runner
class BatchRunner:
    """Fan assignment problems across processes, with caching and seeding.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``0`` solves in-process (serial);
        ``>= 1`` uses a process pool of that size; ``None`` reads the
        ``REPRO_BATCH_WORKERS`` environment variable and falls back to
        serial.
    chunk_size:
        Tasks per inter-process message.  Default: enough chunks for ~4
        rounds per worker.
    cache:
        Optional :class:`~repro.runtime.cache.ResultCache`; consulted before
        dispatch, written once per unique uninterrupted solve.  A write
        that fails with ``OSError`` leaves the result uncached; the batch
        still returns it.
    registry:
        Solver registry (default: the process-wide default registry).
    base_seed:
        When set, every stochastic task without an explicit seed receives a
        seed derived from ``(base_seed, problem hash, method, options)``.
    validate:
        Validate each instance before its solve.
    tracer:
        Optional :class:`~repro.observability.tracing.Tracer`.  When set
        (and enabled), every dispatched task gets a ``task`` root span with
        a ``solve`` child and the spec's ``method:*`` under that: pool
        children resume the root from the payload's trace context, and the
        in-process loop opens the child itself.

    A task that raises comes back as an item with ``error``,
    ``status="error"`` and the exception's diagnostics in ``details``
    (e.g. a ``FrontierExplosion``'s frontier counters), as it does through
    the spool.
    """

    def __init__(self,
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 registry: Optional[SolverRegistry] = None,
                 base_seed: Optional[int] = None,
                 validate: bool = True,
                 tracer: Optional[Tracer] = None) -> None:
        if workers is None:
            workers = int(os.environ.get(WORKERS_ENV_VAR, "0") or "0")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.workers = workers
        self.chunk_size = chunk_size
        self.cache = cache
        self.registry = registry if registry is not None else default_registry()
        self.base_seed = base_seed
        self.validate = validate
        self.tracer = tracer

    def _root_span(self, prep: PreparedTask):
        if self.tracer is None or not self.tracer.enabled:
            return None
        return self.tracer.root("task", problem_hash=prep.key,
                                method=prep.spec.name, tag=prep.task.tag)

    # ------------------------------------------------------------- frontend
    def solve_many(self,
                   problems: Iterable[AssignmentProblem],
                   method: str = "colored-ssb",
                   weighting: Optional[SSBWeighting] = None,
                   seeds: Optional[Sequence[Optional[int]]] = None,
                   deadline_s: Optional[float] = None,
                   **options: Any) -> BatchReport:
        """Solve every problem with one method (the common sweep shape)."""
        problems = list(problems)
        if seeds is not None and len(seeds) != len(problems):
            raise ValueError("seeds must match problems one-to-one")
        tasks = [
            BatchTask(problem=problem, method=method, options=dict(options),
                      weighting=weighting,
                      seed=None if seeds is None else seeds[i],
                      tag=problem.name,
                      deadline_s=deadline_s)
            for i, problem in enumerate(problems)
        ]
        return self.run(tasks)

    def run(self, tasks: Sequence[Union[BatchTask, AssignmentProblem]]) -> BatchReport:
        """Execute a batch and return per-task results in input order."""
        started = time.perf_counter()
        normalized = [task if isinstance(task, BatchTask) else BatchTask(problem=task)
                      for task in tasks]

        prepared = prepare_tasks(normalized, self.registry, self.base_seed)

        # Probe the cache, then solve each remaining key once: an identical
        # task later in the batch is served by its leader's outcome (cache
        # source "batch"), and the cache is written once per unique solve.
        items: List[Optional[BatchItemResult]] = [None] * len(prepared)
        leaders: Dict[str, int] = {}
        for index, prep in enumerate(prepared):
            entry = source = None
            if self.cache is not None and prep.cacheable:
                entry, source = cache_get_with_source(self.cache, prep.key)
            if entry is not None:
                items[index] = batch_item(
                    index, prep, outcome_from_entry(prep.key, entry, source))
            else:
                leaders.setdefault(prep.key, index)
        outcomes = self._solve([prepared[index] for index in leaders.values()])
        for key, index in leaders.items():
            if prepared[index].cacheable:
                cache_outcome(self.cache, key, outcomes[key])
        for index, prep in enumerate(prepared):
            if items[index] is None:
                items[index] = batch_item(
                    index, prep, outcomes[prep.key],
                    cache_source=None if leaders[prep.key] == index
                    else "batch")

        report = BatchReport.tally(items, time.perf_counter() - started,
                                   self.workers)
        metrics = default_metrics()
        tasks_total = metrics.counter(
            "repro_batch_tasks_total",
            "Batch tasks by final status (solved/cached/failed)")
        tasks_total.inc(report.solved, status="solved")
        tasks_total.inc(report.cache_hits, status="cached")
        tasks_total.inc(report.failed, status="failed")
        metrics.histogram(
            "repro_batch_wall_seconds",
            "Wall-clock seconds per BatchRunner.run call").observe(
            report.wall_s)
        return report

    # ------------------------------------------------------------- backends
    def _solve(self, leaders: List[PreparedTask]) -> Dict[str, Dict[str, Any]]:
        """Solve each task once: in this process or over the pool.

        Both paths open the task's root span here; the in-process loop
        nests its ``solve`` span under it directly, and a pool child
        resumes it from the payload's trace context.
        """
        if not leaders:
            return {}
        spans = {prep.key: self._root_span(prep) for prep in leaders}
        if self.workers == 0:
            outcomes = {}
            for prep in leaders:
                root = spans[prep.key]
                span = None if root is None else self.tracer.resume(
                    root.context(), "solve", task_id=prep.key,
                    method=prep.spec.name)
                outcomes[prep.key] = solve_task(
                    prep.task.problem, prep.spec, prep.key,
                    options=prep.options, weighting=prep.task.weighting,
                    validate=self.validate, deadline_s=prep.deadline_s,
                    span=span)
        else:
            # each task carries its budget *inside* the payload; the child
            # builds a cooperative context from it, so the pool is never
            # killed
            outcomes = self._collect_executor(self._chunked([
                task_payload(prep, validate=self.validate,
                             trace=None if spans[prep.key] is None
                             else spans[prep.key].context())
                for prep in leaders]))
        for key, span in spans.items():
            if span is not None:
                outcome = outcomes[key]
                span.finish(status=outcome.get("status"),
                            ok=outcome.get("ok"),
                            objective=outcome.get("objective"))
        return outcomes

    def _chunked(self, payloads: List[Dict[str, Any]]
                 ) -> List[List[Dict[str, Any]]]:
        chunk_size = self.chunk_size
        if chunk_size is None:
            chunk_size = max(1, math.ceil(len(payloads) / (self.workers * 4)))
        return [payloads[i:i + chunk_size]
                for i in range(0, len(payloads), chunk_size)]

    def _collect_executor(self, chunks: List[List[Dict[str, Any]]]
                          ) -> Dict[str, Any]:
        """Run every chunk on a ProcessPoolExecutor (detects dead workers)."""
        outcomes: Dict[str, Any] = {}
        with ProcessPoolExecutor(max_workers=self.workers) as executor:
            futures = [(executor.submit(_solve_payload_chunk, chunk), chunk)
                       for chunk in chunks]
            for future, chunk in futures:
                try:
                    for outcome in future.result():
                        outcomes[outcome["key"]] = outcome
                except Exception as exc:  # noqa: BLE001 - e.g. broken pool
                    for payload in chunk:
                        outcomes.setdefault(payload["key"],
                                            error_outcome(payload["key"], exc))
        return outcomes


# ------------------------------------------------------------------ helpers
def serial_sweep(problems: Iterable[AssignmentProblem],
                 method: str = "colored-ssb",
                 weighting: Optional[SSBWeighting] = None,
                 **options: Any) -> List[Any]:
    """Plain serial loop over :func:`repro.core.solver.solve`.

    The baseline the BatchRunner's speedup is measured against (and a
    convenient escape hatch when process pools are unavailable).
    """
    from repro.core.solver import solve

    return [solve(problem, method=method, weighting=weighting, **options)
            for problem in problems]

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

``workers=0`` (the default) solves in-process — no pickling, full
:class:`~repro.core.solver.SolverResult` objects preserved — which is what
the experiment drivers use unless ``REPRO_BATCH_WORKERS`` says otherwise.
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
from repro.runtime.cache import (
    ResultCache,
    cache_entry_from_result,
    cache_get_with_source,
    json_safe_details,
    make_cache_entry,
)
from repro.runtime.payload import (
    PreparedTask,
    derive_seed,
    format_error as _format_error,
    prepare_tasks,
    solve_payload_chunk as _solve_payload_chunk,
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
    solver_result: Optional[Any] = None     #: full SolverResult (in-process only)
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
        dispatch, fed after every successful solve.
    registry:
        Solver registry (default: the process-wide default registry).
    base_seed:
        When set, every stochastic task without an explicit seed receives a
        seed derived from ``(base_seed, problem hash, method, options)``.
    validate:
        Forwarded to :func:`repro.core.solver.solve`.
    tracer:
        Optional :class:`~repro.observability.tracing.Tracer`.  When set
        (and enabled), every dispatched task gets a root span whose context
        rides inside the payload, so pool children continue the submitter's
        trace; serial solves attach the span to their cooperative context
        directly.
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

    def _root_span(self, prep: PreparedTask, name: str = "task"):
        if self.tracer is None or not self.tracer.enabled:
            return None
        return self.tracer.root(name, problem_hash=prep.key,
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
        items = [BatchItemResult(index=index, tag=prep.task.tag,
                                 method=prep.spec.name, key=prep.key,
                                 seed=prep.seed)
                 for index, prep in enumerate(prepared)]

        # ------------------------------------------------------- cache probe
        pending: List[int] = []
        for index, prep in enumerate(prepared):
            entry = source = None
            if self.cache is not None and prep.cacheable:
                entry, source = cache_get_with_source(self.cache, prep.key)
            if entry is not None:
                self._apply_entry(items[index], prep, entry, cached=True)
                items[index].cache_source = source
            else:
                pending.append(index)

        # Deduplicate identical keys inside the batch: solve once, fan out.
        # The fan-out copies count as cache hits (source "batch"): once the
        # first occurrence warms the cache, its duplicates are served from it.
        by_key: Dict[str, List[int]] = {}
        for index in pending:
            by_key.setdefault(prepared[index].key, []).append(index)
        unique_indices = [indices[0] for indices in by_key.values()]

        if unique_indices:
            if self.workers == 0:
                outcomes = self._run_serial(unique_indices, prepared)
            else:
                outcomes = self._run_parallel(unique_indices, prepared)
            for key, outcome in outcomes.items():
                for position, index in enumerate(by_key[key]):
                    self._apply_outcome(items[index], prepared[index], outcome)
                    if position > 0 and items[index].ok:
                        items[index].cached = True
                        items[index].cache_source = "batch"

        solved = sum(1 for item in items if item.ok and not item.cached)
        failed = sum(1 for item in items if not item.ok)
        by_source = {"memory": 0, "disk": 0, "batch": 0}
        for item in items:
            if item.cached:
                by_source[item.cache_source or "memory"] = \
                    by_source.get(item.cache_source or "memory", 0) + 1
        metrics = default_metrics()
        tasks_total = metrics.counter(
            "repro_batch_tasks_total",
            "Batch tasks by final status (solved/cached/failed)")
        tasks_total.inc(solved, status="solved")
        tasks_total.inc(sum(1 for item in items if item.cached),
                        status="cached")
        tasks_total.inc(failed, status="failed")
        metrics.histogram(
            "repro_batch_wall_seconds",
            "Wall-clock seconds per BatchRunner.run call").observe(
            time.perf_counter() - started)
        return BatchReport(results=items,
                           wall_s=time.perf_counter() - started,
                           workers=self.workers,
                           cache_hits=sum(1 for item in items if item.cached),
                           solved=solved,
                           failed=failed,
                           cache_memory_hits=by_source["memory"],
                           cache_disk_hits=by_source["disk"],
                           cache_batch_hits=by_source["batch"])

    # ------------------------------------------------------------- backends
    def _run_serial(self, indices: List[int],
                    prepared: List[PreparedTask]) -> Dict[str, Any]:
        from repro.core.context import SolveContext

        outcomes: Dict[str, Any] = {}
        for index in indices:
            prep = prepared[index]
            task: BatchTask = prep.task
            context = (SolveContext(deadline_s=prep.deadline_s)
                       if prep.deadline_s is not None else None)
            span = self._root_span(prep, name="solve")
            if span is not None:
                if context is None:
                    context = SolveContext()
                context.span = span
            try:
                if self.validate:
                    task.problem.validate()
                result = prep.spec.solve(task.problem, weighting=task.weighting,
                                         context=context, **prep.options)
                outcomes[prep.key] = result
                if span is not None:
                    span.finish(status=getattr(result, "status", None),
                                objective=getattr(result, "objective", None))
            except Exception as exc:  # noqa: BLE001 - batch keeps going
                if span is not None:
                    span.finish(error=_format_error(exc))
                outcomes[prep.key] = {"ok": False, "error": _format_error(exc)}
        return outcomes

    def _run_parallel(self, indices: List[int],
                      prepared: List[PreparedTask]) -> Dict[str, Any]:
        """Fan out over a ``ProcessPoolExecutor``.

        Each task carries its budget *inside* the payload; the worker builds
        a cooperative context from it, so the pool is never killed.
        """
        payloads: List[Dict[str, Any]] = []
        spans: Dict[str, Any] = {}
        for index in indices:
            prep = prepared[index]
            trace = None
            span = self._root_span(prep)
            if span is not None:
                spans[prep.key] = span
                trace = span.context()
            payloads.append(task_payload(prep, validate=self.validate,
                                         trace=trace))

        outcomes = self._collect_executor(self._chunked(payloads))
        for key, span in spans.items():
            outcome = outcomes.get(key)
            if isinstance(outcome, Mapping):
                span.finish(status=outcome.get("status"),
                            ok=outcome.get("ok"),
                            objective=outcome.get("objective"))
            else:
                span.finish()
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
                        outcomes.setdefault(payload["key"], {
                            "ok": False,
                            "error": _format_error(exc),
                        })
        return outcomes

    # ------------------------------------------------------------ result fan
    def _apply_entry(self, item: BatchItemResult, prep: PreparedTask,
                     entry: Mapping[str, Any], cached: bool) -> None:
        from repro.core.assignment import Assignment

        task: BatchTask = prep.task
        item.cached = cached
        item.objective = entry.get("objective")
        item.elapsed_s = entry.get("elapsed_s", 0.0)
        item.placement = dict(entry.get("placement") or {})
        item.details = dict(entry.get("details") or {})
        item.status = entry.get("status") or item.status
        item.incumbent_history = list(entry.get("incumbent_history") or ())
        if item.placement:
            item.assignment = Assignment(problem=task.problem,
                                         placement=item.placement)

    def _apply_outcome(self, item: BatchItemResult, prep: PreparedTask,
                       outcome: Any) -> None:
        from repro.runtime.payload import outcome_cacheable

        # outcome is either a SolverResult (serial path) or a worker dict
        if isinstance(outcome, dict):
            if not outcome.get("ok", False):
                item.error = outcome.get("error", "unknown error")
                item.status = outcome.get("status") or item.status
                return
            self._apply_entry(item, prep, outcome, cached=False)
            if (self.cache is not None and prep.cacheable
                    and outcome_cacheable(outcome)):
                self.cache.put(prep.key, make_cache_entry(
                    item.method, item.objective, item.elapsed_s,
                    item.placement, item.details, status=item.status))
            return
        result = outcome
        item.objective = result.objective
        item.elapsed_s = result.elapsed_s
        item.status = result.status
        item.incumbent_history = [[round(t, 6), obj, src]
                                  for t, obj, src in result.incumbent_history]
        if result.assignment is None:
            # the context fired before any incumbent existed
            item.error = (f"{result.status}: the context fired before any "
                          f"feasible incumbent existed")
            return
        item.placement = dict(result.assignment.placement)
        item.details = json_safe_details(result.details)
        item.assignment = result.assignment
        item.solver_result = result
        if (self.cache is not None and prep.cacheable
                and result.interrupted is None):
            self.cache.put(prep.key, cache_entry_from_result(result))


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

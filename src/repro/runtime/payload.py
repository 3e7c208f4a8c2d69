"""Task preparation, the solve every backend runs, and its outcome dict.

One batch task goes through the same steps no matter which execution
backend runs it — the in-process loop, the ``ProcessPoolExecutor`` fan-out of
:class:`~repro.runtime.runner.BatchRunner`, or a :mod:`repro.distributed`
worker pulling from a filesystem spool on another host:

1. **prepare** (:func:`prepare_tasks`) — resolve the method against the
   registry, derive the explicit seed for stochastic specs, fingerprint the
   instance and compute the cache key plus its *cacheability* (a seedless
   stochastic task is a fresh independent draw: it must not dedup into
   another task's result or be replayed from the cache);
2. **encode** (:func:`task_payload`) — for the pool and the spool only:
   flatten the prepared task into a JSON-safe dict that can cross a process
   boundary or rest in a spool file, which :func:`solve_payload` decodes;
3. **solve** (:func:`solve_task`) — validate the instance and run the
   resolved spec, reporting errors as data: every backend gets the same
   outcome dict (``error_outcome`` for a raised solve, with
   ``status="error"`` and the exception's diagnostics).

A cache entry read back is an outcome too (:func:`outcome_from_entry`), and
:func:`cache_outcome` is the one writer of an entry from an outcome.
Keeping these here (instead of private to the runner) is what lets the
distributed queue path share semantics with the batch path bit-for-bit:
identical keys, identical seeds, identical outcomes.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.core.context import SolveContext
from repro.core.dwg import SSBWeighting
from repro.runtime.cache import (ResultCache, json_safe_details,
                                 make_cache_entry, problem_canonical_json,
                                 problem_fingerprint, result_key)
from repro.runtime.registry import SolverRegistry

PAYLOAD_VERSION = 1


def format_error(exc: BaseException) -> str:
    """One-line error text carried in results instead of raising."""
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def error_details(exc: BaseException) -> Optional[Dict[str, Any]]:
    """Structured diagnostics an exception chooses to expose.

    Duck-typed: an exception with a callable ``error_details()`` (e.g.
    :class:`~repro.baselines.pareto_dp.FrontierExplosion`, which reports
    how many labels the DP created and its peak frontier before the cap
    fired) gets those fields carried in the error envelope next to the
    one-line error text, so a blown-up task is diagnosable from the
    dead-letter record / ``repro audit`` without a re-run.  Diagnostics
    are best-effort: anything that fails or is malformed is dropped.
    """
    probe = getattr(exc, "error_details", None)
    if not callable(probe):
        return None
    try:
        details = probe()
    except Exception:  # noqa: BLE001 - diagnostics must never mask the error
        return None
    if not isinstance(details, dict) or not details:
        return None
    return {str(key): value for key, value in details.items()}


def derive_seed(base_seed: int, *parts: Any) -> int:
    """A stable 63-bit seed derived from ``base_seed`` and identifying parts.

    Deterministic across processes and runs (unlike ``hash()``), and
    independent of task submission order.
    """
    import hashlib

    text = ":".join([str(base_seed), *map(str, parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class PreparedTask:
    """One task after method resolution, seeding and cache-key derivation.

    ``deadline_s`` is the task's cooperative wall-clock budget.  It is
    deliberately **not** part of the cache key: a deadline changes *when* a
    solve stops, not what the full answer is — and interrupted (partial)
    results are never written to the cache, so a cached entry is always the
    budget-free answer and serving it under any deadline is sound.
    """

    task: Any                      #: the originating BatchTask
    spec: Any                      #: resolved SolverSpec
    options: Dict[str, Any]        #: options with the derived seed folded in
    key: str                       #: full result-cache key
    cacheable: bool                #: False for seedless stochastic draws
    seed: Optional[int]            #: effective seed (stochastic specs only)
    problem_hash: str              #: canonical instance fingerprint
    deadline_s: Optional[float] = None  #: cooperative per-task budget


def prepare_task(task: Any, registry: SolverRegistry,
                 base_seed: Optional[int], index: int) -> PreparedTask:
    """Resolve, seed and key one task (``index`` disambiguates fresh draws)."""
    spec = registry.resolve(task.method)
    options = dict(task.options)
    seed = task.seed
    problem_hash = problem_fingerprint(task.problem)
    if spec.stochastic:
        if seed is None:
            seed = options.get("seed")
        if seed is None and base_seed is not None:
            seed = derive_seed(base_seed, problem_hash, spec.name,
                               sorted(options.items()))
        if seed is not None:
            options["seed"] = seed
    key = result_key(task.problem, spec.name, options=options,
                     weighting=task.weighting, problem_hash=problem_hash)
    # A stochastic task without a seed is a fresh independent draw: it must
    # not collapse into another task's result via dedup, and its result must
    # not be replayed from the cache.
    cacheable = not (spec.stochastic and options.get("seed") is None)
    if not cacheable:
        key = f"{key}#draw{index}"
    return PreparedTask(task=task, spec=spec, options=options, key=key,
                        cacheable=cacheable, seed=seed,
                        problem_hash=problem_hash,
                        deadline_s=getattr(task, "deadline_s", None))


def prepare_tasks(tasks: Iterable[Any], registry: SolverRegistry,
                  base_seed: Optional[int] = None) -> List[PreparedTask]:
    return [prepare_task(task, registry, base_seed, index)
            for index, task in enumerate(tasks)]


def task_payload(prep: PreparedTask, validate: bool = True,
                 trace: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The JSON-safe envelope a worker needs to solve one prepared task.

    ``problem_json`` is the canonical text whose SHA-256 is
    ``prep.problem_hash`` (compact separators: ``json``'s C encoder).
    """
    task = prep.task
    payload = {
        "payload_version": PAYLOAD_VERSION,
        "key": prep.key,
        "problem_json": problem_canonical_json(task.problem),
        "method": prep.spec.name,
        "options": prep.options,
        "weighting": (None if task.weighting is None else
                      [task.weighting.lambda_s, task.weighting.lambda_b]),
        "validate": validate,
        "cacheable": prep.cacheable,
        "tag": task.tag,
        "seed": prep.seed,
    }
    if prep.deadline_s is not None:
        # relative seconds, not an absolute time: the budget starts when a
        # worker actually begins the solve, not when the task was spooled
        payload["deadline_s"] = prep.deadline_s
    if trace is not None:
        # trace context is, like deadline_s, added after key computation:
        # whether a task is traced changes what we observe, never the answer,
        # so it must not fragment the result cache
        payload["trace"] = trace
    return payload


def solve_payload(payload: Dict[str, Any],
                  context: Optional[SolveContext] = None) -> Dict[str, Any]:
    """Solve one JSON-encoded task; never raises (errors are data).

    Decodes ``problem_json`` and the weighting, resolves ``method`` against
    the default registry and hands the rest to :func:`solve_task`.  A
    ``"trace"`` field continues the submitter's trace with a ``solve`` span
    in this process.
    """
    from repro.model.serialization import problem_from_json
    from repro.runtime.registry import default_registry

    span = None
    trace = payload.get("trace")
    if trace is not None:
        # continue the submitter's trace in this process; tracing must never
        # take down a solve, so any failure just leaves the task untraced
        try:
            from repro.observability.tracing import Tracer

            tracer = Tracer.from_context(trace)
            if tracer is not None:
                span = tracer.resume(
                    trace, "solve",
                    task_id=payload.get("task_id") or payload.get("key"),
                    method=payload.get("method"))
        except Exception:  # noqa: BLE001 - telemetry is best-effort
            span = None
    try:
        problem = problem_from_json(payload["problem_json"])
        spec = default_registry().resolve(payload["method"])
        weighting = payload.get("weighting")
        if weighting is not None:
            weighting = SSBWeighting(*weighting)
    except Exception as exc:  # noqa: BLE001 - worker must report, not crash
        return error_outcome(payload["key"], exc, span)
    return solve_task(problem, spec, payload["key"],
                      options=payload.get("options", {}), weighting=weighting,
                      validate=payload.get("validate", True),
                      deadline_s=payload.get("deadline_s"),
                      context=context, span=span)


def solve_task(problem: Any, spec: Any, key: str,
               options: Optional[Dict[str, Any]] = None,
               weighting: Optional[SSBWeighting] = None,
               validate: bool = True,
               deadline_s: Optional[float] = None,
               context: Optional[SolveContext] = None,
               span: Any = None) -> Dict[str, Any]:
    """Solve one decoded task with a resolved spec; never raises.

    Every backend ends here: :func:`solve_payload` after decoding, and the
    in-process loop of :class:`~repro.runtime.runner.BatchRunner` directly.
    ``deadline_s`` builds a cooperative
    :class:`~repro.core.context.SolveContext` when the caller does not
    inject one (the distributed worker passes its own, clamped to the
    remaining lease and wired to the progress heartbeat); ``span`` is the
    task's open ``solve`` span, under which the spec opens ``method:*``.
    The outcome carries ``status`` and ``incumbent_history``; a solve the
    context cut short before any incumbent existed is reported as an error
    *with* its terminal status, so streams can tell a timeout from a crash.
    """
    try:
        if context is None and (deadline_s is not None or span is not None):
            context = SolveContext(deadline_s=deadline_s)
        if context is not None and span is not None and context.span is None:
            context.span = span
        started = time.perf_counter()
        if validate:
            problem.validate()
        result = spec.solve(problem, weighting=weighting, context=context,
                            **(options or {}))
        elapsed = time.perf_counter() - started
        history = [[round(t, 6), objective, source]
                   for t, objective, source in result.incumbent_history]
        if span is not None:
            span.set_attr("status", result.status)
            if result.objective is not None:
                span.set_attr("objective", result.objective)
            span.finish()
        if result.assignment is None:
            return {
                "key": key,
                "ok": False,
                "status": result.status,
                "error": f"{result.status}: the context fired before any "
                         f"feasible incumbent existed",
                "incumbent_history": history,
            }
        outcome = {
            "key": key,
            "ok": True,
            "method": result.method,
            "status": result.status,
            "objective": result.objective,
            "elapsed_s": elapsed,
            "placement": dict(result.assignment.placement),
            "details": json_safe_details(result.details),
            "incumbent_history": history,
        }
        if result.interrupted:
            outcome["interrupted"] = result.interrupted
        return outcome
    except Exception as exc:  # noqa: BLE001 - worker must report, not crash
        return error_outcome(key, exc, span)


def error_outcome(key: str, exc: BaseException, span: Any = None
                  ) -> Dict[str, Any]:
    """The error envelope of a task whose solve raised ``exc``."""
    if span is not None:
        span.finish(error=format_error(exc))
    outcome = {"key": key, "ok": False, "status": "error",
               "error": format_error(exc)}
    diagnostics = error_details(exc)
    if diagnostics:
        outcome["details"] = diagnostics
    return outcome


def cache_outcome(cache: Optional[ResultCache], key: str,
                  outcome: Dict[str, Any]) -> None:
    """Write an uninterrupted successful outcome's cache entry.

    Interrupted (deadline/cancelled) results are partial answers for *this*
    request's budget; caching them would serve a possibly sub-optimal
    objective to future budget-free requests under the same key.  A store
    that keeps failing (disk full, I/O errors past the retry budget) leaves
    the result uncached: the solve result still ships.
    """
    if cache is None or not outcome.get("ok") or outcome.get("interrupted"):
        return
    try:
        cache.put(key, make_cache_entry(
            outcome["method"], outcome["objective"], outcome["elapsed_s"],
            outcome["placement"], outcome["details"],
            status=outcome.get("status")))
    except OSError:
        pass


def outcome_from_entry(key: str, entry: Dict[str, Any],
                       source: Optional[str]) -> Dict[str, Any]:
    """A cache entry read back as a task outcome (``cached: True``)."""
    outcome = {
        "key": key,
        "ok": True,
        "method": entry.get("method"),
        "objective": entry.get("objective"),
        "elapsed_s": entry.get("elapsed_s", 0.0),
        "placement": dict(entry.get("placement") or {}),
        "details": dict(entry.get("details") or {}),
        "cached": True,
        "cache_source": source or "cache",
    }
    if entry.get("status"):
        outcome["status"] = entry["status"]
    return outcome


def solve_payload_chunk(chunk: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [solve_payload(payload) for payload in chunk]

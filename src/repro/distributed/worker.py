"""The solve worker: pull, solve, publish, repeat.

A :class:`SolveWorker` is the unit any host contributes to the fleet: point
it at a spool directory (``repro worker --spool DIR``) and it claims tasks,
dispatches them through the same :func:`repro.runtime.payload.solve_payload`
path the batch runner's pool uses, and publishes results back into the
spool.  It consults the shared result cache before solving (so a
re-submitted sweep is served without burning CPU) and writes it after — the
worker that solved a task is the only writer of its cache entry — and it
injects the spool's shared warm-start directory into
``colored-ssb-incremental`` tasks (the warm-started portfolio) so every
worker replays every other worker's last optimal cut for the same tree
structure; plain ``portfolio`` tasks never touch that directory.

Crash safety comes entirely from the spool: a worker that dies mid-task
holds a lease that expires, after which :meth:`WorkQueue.recover` (run by
the surviving workers and by result streams) requeues the task.  A *live*
worker on a long solve renews its own lease from a heartbeat thread
(:class:`LeaseHeartbeat`), so a task that legitimately takes longer than
``lease_timeout`` is not spuriously requeued and double-solved — leases
bound *crash* detection latency, not solve time.

``REPRO_WORKER_SOLVE_DELAY`` (seconds, float) inserts an artificial pause
before each solve — a deterministic hook for crash-recovery and
lease-renewal tests that need to observe a worker mid-lease.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from typing import Any, Callable, Dict, Optional

from repro.core.context import SolveContext
from repro.distributed.spool import (POISON_DIR, TMP_DIR, SpoolTask,
                                     WorkQueue, _split_name, trace_fields)
from repro.observability import events as _events
from repro.observability.metrics import MetricsRegistry
from repro.runtime.cache import ResultCache, cache_get_with_source
from repro.runtime.payload import (cache_outcome, outcome_from_entry,
                                   solve_payload)
from repro.runtime.registry import SolverRegistry, default_registry

SOLVE_DELAY_ENV_VAR = "REPRO_WORKER_SOLVE_DELAY"

#: Subdirectory of the spool holding the shared warm-start index.
WARM_DIR = "warmstarts"
#: Subdirectory of the spool holding the shared on-disk result cache.
CACHE_DIR = "cache"


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class LeaseHeartbeat:
    """Daemon thread renewing one claim's lease while its task is solved.

    Touches the claim file every ``interval`` seconds via
    :meth:`WorkQueue.renew`; used as a context manager around the solve so
    the lease can never expire under a live worker, however long the solve
    runs.  If a renew fails (recovery already requeued the claim — e.g. the
    whole process was suspended past the lease), :attr:`lost` turns True and
    the thread stops; the worker still publishes its result, which the
    duplicate claimant will observe and retire.

    With a ``progress`` callable (returning the latest best-so-far record,
    or ``None`` when nothing changed), a beat that has fresh progress
    publishes it into the claim file via :meth:`WorkQueue.publish_progress`
    — an atomic payload+progress replace whose mtime bump doubles as the
    renewal — so any spool observer can read a long solve's incumbent.
    """

    def __init__(self, queue: WorkQueue, task: SpoolTask,
                 interval: float,
                 progress: Optional[Callable[[], Optional[Dict[str, Any]]]]
                 = None) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        self._queue = queue
        self._task = task
        self._interval = interval
        self._progress = progress
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{task.task_id}",
            daemon=True)
        self._pending_record: Optional[Dict[str, Any]] = None
        self.renewals = 0
        self.progress_published = 0
        self.lost = False

    def __enter__(self) -> "LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()

    def _beat(self) -> bool:
        if self._progress is not None:
            record = self._progress()
            if record is None:
                record = self._pending_record    # retry a failed publish
            if record is not None:
                if self._queue.publish_progress(self._task, record):
                    self._pending_record = None
                    self.progress_published += 1
                    return True
                # progress write failed (e.g. a full spool disk): keep the
                # record for the next beat and fall back to the cheap utime
                # renewal so the lease never expires under a live solve
                self._pending_record = record
        return self._queue.renew(self._task)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if self._beat():
                self.renewals += 1
            elif not os.path.exists(self._task.path):
                # the claim file is really gone (requeued or acked):
                # nothing left to renew
                self.lost = True
                return
            # else: transient filesystem error (NFS ESTALE/EIO) while the
            # claim still exists — keep beating, the next renew may land


class _ProgressTracker:
    """Thread-safe bridge from solver incumbents to the heartbeat thread.

    The solve thread reports incumbents through the context callback; the
    heartbeat thread drains the latest record — :meth:`take` returns ``None``
    when nothing improved since the last publish, so idle beats stay plain
    lease renewals.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._record: Optional[Dict[str, Any]] = None
        self._count = 0

    def report(self, objective: float, payload: Any,
               source: Optional[str]) -> None:
        with self._lock:
            self._count += 1
            self._record = {"best_objective": objective,
                            "incumbents": self._count,
                            "source": source,
                            # wall-clock stamp so observers (``repro top``)
                            # can age the lease from real activity instead of
                            # the claim file's mtime, which idle renewals bump
                            "ts": time.time()}

    def take(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            record, self._record = self._record, None
            return record


class SolveWorker:
    """One worker process draining a :class:`WorkQueue`.

    Parameters
    ----------
    queue:
        The spool to pull from (or a directory path).
    cache:
        Optional shared result cache, probed before and written after each
        solve, before the ack.  Workers are the cache's only writers.  Pass
        the spool-colocated store so all workers share it.
    registry:
        Solver registry used to resolve canonical method names (for the
        warm-dir injection); solving itself goes through the facade.
    worker_id:
        Recorded in every published result; defaults to host-pid-entropy.
    heartbeat:
        Renew the claim lease from a background thread during each solve
        (default on).  Disable only in tests that need to observe lease
        expiry under a live worker.
    poison_threshold:
        Dead-letter a task once this many *previous* attempts left crash
        markers behind (see below).  The default of 2 means a task that
        hard-crashed two workers is dead-lettered before it takes down a
        third.

    **Poison-task circuit breaker.**  A task whose *solve itself* crashes
    the process (segfault in a native solver, OOM kill) never reaches the
    dead-letter path through ``max_requeues`` alone until it has crashed
    ``max_requeues + 1`` workers.  To bound the blast radius, each worker
    drops a crash marker — ``poison/<task_id>.a<attempt>.json`` — just
    before the solve and removes it just after.  A clean crash-free attempt
    leaves no marker; a hard crash leaves one that nothing cleans up.  The
    claimant of a *retry* (attempt > 0) counts leftover markers from
    earlier attempts: at ``poison_threshold`` the task is dead-lettered
    with a structured error envelope (``kind="poison"``) instead of being
    solved, so its submitter gets a typed error and the fleet keeps its
    workers.

    Anytime behaviour: a task payload's ``deadline_s`` becomes a cooperative
    :class:`~repro.core.context.SolveContext` around the solve.  With the
    heartbeat *disabled* the deadline is additionally clamped to the
    remaining lease — a solve that outlived its lease would be requeued and
    double-solved, so returning the incumbent at the lease boundary is
    strictly better; with the heartbeat on, the lease renews and no clamp
    applies.  Each heartbeat publishes the solve's best-so-far objective
    into the claim file.  :meth:`request_stop` cancels cooperatively: a task
    claimed but not yet solved is released back to the queue (requeued with
    no retry attempt consumed — never dead-lettered, however many rolling
    restarts it rides through), a solve in flight returns its incumbent.
    """

    def __init__(self, queue: "WorkQueue | str",
                 cache: Optional[ResultCache] = None,
                 registry: Optional[SolverRegistry] = None,
                 worker_id: Optional[str] = None,
                 heartbeat: bool = True,
                 metrics: Optional[MetricsRegistry] = None,
                 poison_threshold: int = 2) -> None:
        if isinstance(queue, str):
            queue = WorkQueue(queue)
        if poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        self.queue = queue
        self.cache = cache
        self.registry = registry if registry is not None else default_registry()
        self.worker_id = worker_id or default_worker_id()
        self.heartbeat = heartbeat
        self.poison_threshold = poison_threshold
        #: renew cadence: well inside the lease so several beats fit into
        #: one timeout even under heavy filesystem latency
        self.heartbeat_interval = max(0.01, queue.lease_timeout / 4.0)
        self.processed = 0
        self.cache_hits = 0
        self.lease_renewals = 0
        self.stop_event = threading.Event()
        self._solve_delay = float(os.environ.get(SOLVE_DELAY_ENV_VAR, "0") or 0)
        #: shares the spool's registry by default so one snapshot covers both
        self.metrics = metrics if metrics is not None else queue.metrics
        self._tasks_total = self.metrics.counter(
            "repro_worker_tasks_total",
            "Tasks handled by this worker, by outcome "
            "(solved/cached/released)")
        self._cache_hits_total = self.metrics.counter(
            "repro_worker_cache_hits_total",
            "Pre-solve result-cache hits by tier the entry came from")
        self._renewals_total = self.metrics.counter(
            "repro_worker_lease_renewals_total",
            "Lease heartbeat renewals across all solves")
        self._solve_seconds = self.metrics.histogram(
            "repro_solve_seconds",
            "Wall-clock solve latency by solver method and final status")

    def _event(self, kind: str, task: SpoolTask, **fields: Any) -> None:
        if self.queue.events is not None:
            self.queue.events.emit(kind, task_id=task.task_id,
                                   worker_id=self.worker_id, **fields,
                                   **trace_fields(task.payload))

    def request_stop(self) -> None:
        """Cooperatively stop: claimed-but-unsolved tasks are requeued and
        any in-flight anytime solve returns its incumbent."""
        self.stop_event.set()

    # -------------------------------------------------------------- main loop
    def run(self, max_tasks: Optional[int] = None, drain: bool = False,
            timeout: Optional[float] = None) -> int:
        """Process tasks until a stop condition; returns the number handled.

        ``drain=True`` exits as soon as no task is claimable (after expired
        leases were recovered); otherwise the worker polls until ``max_tasks``
        or ``timeout`` is reached.
        """
        started = time.monotonic()
        handled = 0
        while max_tasks is None or handled < max_tasks:
            if self.stop_event.is_set():
                break
            remaining = None
            if timeout is not None:
                remaining = timeout - (time.monotonic() - started)
                if remaining <= 0:
                    break
            if drain:
                task = self.queue.claim(block=False)
                if task is None:
                    break
            else:
                task = self.queue.claim(
                    block=True,
                    timeout=(min(1.0, remaining) if remaining is not None
                             else 1.0))
                if task is None:
                    continue
            if self.process(task) is None:
                break           # stop requested between claim and solve
            handled += 1
        return handled

    # ---------------------------------------------------------------- one task
    def process(self, task: SpoolTask) -> Optional[Dict[str, Any]]:
        """Solve one claimed task and publish its outcome.

        Returns ``None`` — after nacking the task back into the queue — when
        a stop was requested before the solve started: the claim-to-ack
        window must requeue, never dead-letter, on cooperative shutdown.
        """
        if self.stop_event.is_set():
            self.queue.release(task)    # no attempt consumed: never solved
            self._tasks_total.inc(outcome="released")
            return None
        payload = dict(task.payload)
        # let downstream spans (solve/method) carry the spool task id instead
        # of falling back to the cache key, so audit joins line up exactly
        payload.setdefault("task_id", task.task_id)
        poisoned = self._poison_check(task)
        if poisoned is not None:
            return poisoned
        outcome = self._cached_outcome(payload)
        if outcome is not None:
            self._event(_events.EVENT_CACHE_HIT, task,
                        source=outcome.get("cache_source"))
            self._tasks_total.inc(outcome="cached")
        else:
            self._event(_events.EVENT_SOLVE_START, task,
                        method=payload.get("method"), attempt=task.attempt)
            solve_started = time.monotonic()
            self._mark_crash(task)
            try:
                if self.heartbeat:
                    progress = _ProgressTracker()
                    context = self._task_context(payload, progress)
                    with LeaseHeartbeat(self.queue, task,
                                        self.heartbeat_interval,
                                        progress=progress.take) as beat:
                        outcome = self._solve(payload, context)
                    self.lease_renewals += beat.renewals
                    if beat.renewals:
                        self._renewals_total.inc(beat.renewals)
                else:
                    outcome = self._solve(payload,
                                          self._task_context(payload, None))
            finally:
                # a hard crash (SIGKILL, segfault) never reaches this, which
                # is exactly how the marker survives to incriminate the task
                self._unmark_crash(task)
            solve_elapsed = time.monotonic() - solve_started
            self._solve_seconds.observe(
                solve_elapsed,
                method=str(outcome.get("method") or payload.get("method")),
                status=str(outcome.get("status") or
                           ("ok" if outcome.get("ok") else "error")))
            self._event(_events.EVENT_SOLVE_END, task,
                        method=outcome.get("method"),
                        status=outcome.get("status"),
                        ok=outcome.get("ok"),
                        objective=outcome.get("objective"),
                        elapsed_s=solve_elapsed)
            if (self.stop_event.is_set() and not outcome.get("ok")
                    and outcome.get("status") == "cancelled"):
                # the stop landed after the claim check but before the
                # solver's first incumbent: nothing was produced, so the
                # task goes back to the queue (same contract as the
                # claimed-but-unsolved window — no attempt consumed), not
                # into results as a terminal failure
                self.queue.release(task)
                self._tasks_total.inc(outcome="released")
                return None
            self._tasks_total.inc(outcome="solved")
            if payload.get("cacheable", True):
                cache_outcome(self.cache, payload["key"], outcome)
        outcome["worker_id"] = self.worker_id
        outcome["tag"] = payload.get("tag")
        outcome["seed"] = payload.get("seed")
        outcome["index"] = payload.get("index")
        try:
            self.queue.ack(task, outcome)
        except OSError:
            # even the retried result write failed (e.g. the spool disk is
            # full): hand the task back so a later attempt — here or on
            # another worker — can publish; recovery covers us if even the
            # nack rename fails
            self.queue.nack(task)
            self._tasks_total.inc(outcome="ack_failed")
            self.processed += 1
            return outcome
        self.processed += 1
        return outcome

    # ------------------------------------------------------- poison breaker
    def _poison_dir(self) -> str:
        return os.path.join(self.queue.directory, POISON_DIR)

    def _marker_path(self, task: SpoolTask) -> str:
        return os.path.join(self._poison_dir(),
                            f"{task.task_id}.a{task.attempt}.json")

    def _crash_markers(self, task: SpoolTask) -> int:
        """Markers left by *earlier* attempts that never finished their solve."""
        try:
            names = self.queue.fs.listdir(self._poison_dir())
        except OSError:
            return 0
        count = 0
        for name in names:
            parts = _split_name(name)
            if (parts is not None and parts["task_id"] == task.task_id
                    and parts["attempt"] < task.attempt):
                count += 1
        return count

    def _mark_crash(self, task: SpoolTask) -> None:
        """Drop the crash marker; best-effort (a failed write just weakens
        the breaker by one attempt, it must never block the solve)."""
        try:
            self.queue.fs.write_json_atomic(
                self._marker_path(task),
                {"task_id": task.task_id, "attempt": task.attempt,
                 "worker_id": self.worker_id},
                tmp_dir=os.path.join(self.queue.directory, TMP_DIR))
        except OSError:
            pass

    def _unmark_crash(self, task: SpoolTask) -> None:
        try:
            self.queue.fs.unlink(self._marker_path(task))
        except OSError:
            pass

    def _clear_markers(self, task: SpoolTask) -> None:
        """Remove every marker for a task once its fate is sealed."""
        try:
            names = self.queue.fs.listdir(self._poison_dir())
        except OSError:
            return
        for name in names:
            parts = _split_name(name)
            if parts is not None and parts["task_id"] == task.task_id:
                try:
                    self.queue.fs.unlink(
                        os.path.join(self._poison_dir(), name))
                except OSError:
                    pass

    def _poison_check(self, task: SpoolTask) -> Optional[Dict[str, Any]]:
        """Dead-letter a repeat crasher before it takes down this worker.

        Returns the typed error outcome when the breaker trips, ``None``
        when the task is safe to solve.  Only retries (attempt > 0) can
        trip: a first delivery has no history to judge.
        """
        if task.attempt == 0:
            return None
        markers = self._crash_markers(task)
        if markers < self.poison_threshold:
            return None
        error = (f"poison task: {markers} previous attempt(s) crashed their "
                 f"worker mid-solve (threshold {self.poison_threshold}); "
                 f"dead-lettered without solving")
        self.queue.fail(task, error=error, kind="poison",
                        crash_markers=markers, worker_id=self.worker_id)
        self._event(_events.EVENT_POISON, task,
                    attempt=task.attempt, crash_markers=markers)
        self._clear_markers(task)
        self._tasks_total.inc(outcome="poisoned")
        self.processed += 1
        return {"task_id": task.task_id, "ok": False, "status": "error",
                "error": error, "error_kind": "poison"}

    def _task_context(self, payload: Dict[str, Any],
                      progress: Optional[_ProgressTracker]
                      ) -> Optional[SolveContext]:
        """The task's cooperative context: payload deadline, lease clamp,
        worker stop token, progress wiring.

        With the heartbeat on, the lease renews under the solve, so only the
        payload's own ``deadline_s`` applies; with it off, the deadline is
        clamped to the lease timeout — past that the task would be requeued
        and double-solved anyway.
        """
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None and not self.heartbeat:
            # without renewals the lease is a hard wall: solving past it gets
            # the task requeued and double-solved, so the incumbent at the
            # lease boundary is strictly the better answer
            deadline_s = min(deadline_s, self.queue.lease_timeout)
        if (deadline_s is None and progress is None
                and not self.stop_event.is_set()):
            # inert context for a budget-less solve: skip the allocation so
            # the no-deadline path stays exactly the historical one
            return None
        return SolveContext(
            deadline_s=deadline_s,
            cancel=self.stop_event,
            on_incumbent=progress.report if progress is not None else None)

    def _solve(self, payload: Dict[str, Any],
               context: Optional[SolveContext] = None) -> Dict[str, Any]:
        if self._solve_delay:
            time.sleep(self._solve_delay)
        self._inject_warm_dir(payload)
        outcome = solve_payload(payload, context=context)
        outcome["cached"] = False
        return outcome

    def _cached_outcome(self, payload: Dict[str, Any]
                        ) -> Optional[Dict[str, Any]]:
        if self.cache is None or not payload.get("cacheable", True):
            return None
        entry, source = cache_get_with_source(self.cache, payload["key"])
        if entry is None:
            return None
        self.cache_hits += 1
        self._cache_hits_total.inc(source=str(source))
        return outcome_from_entry(payload["key"], entry, source)

    def _inject_warm_dir(self, payload: Dict[str, Any]) -> None:
        """Point incremental tasks at the spool's shared warm-start index."""
        try:
            canonical = self.registry.canonical_name(payload.get("method", ""))
        except Exception:  # noqa: BLE001 - unknown method fails in solve_payload
            return
        if canonical != "colored-ssb-incremental":
            return
        options = dict(payload.get("options") or {})
        if "warm_dir" not in options and "index" not in options:
            options["warm_dir"] = os.path.join(self.queue.directory, WARM_DIR)
            payload["options"] = options


def spool_cache(spool_directory: str):
    """The spool-colocated tiered result cache every worker should share."""
    from repro.runtime.cache import (JSONFileCache, LRUResultCache,
                                     TieredResultCache)

    return TieredResultCache(
        memory=LRUResultCache(),
        disk=JSONFileCache(os.path.join(spool_directory, CACHE_DIR)))

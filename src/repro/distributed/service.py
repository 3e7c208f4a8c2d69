"""The distributed solve service: submit sweeps, stream results.

:class:`SolveService` is the submitter-side facade over the spool.  It
prepares tasks with the exact same semantics as the in-process
:class:`~repro.runtime.runner.BatchRunner` — same registry resolution, same
derived seeds, same cache keys, same in-batch dedup — but hands execution to
whatever ``repro worker`` processes share the spool, and gives results back
as a stream instead of a blocking report:

* cache hits (shared spool cache, probed at submission) are streamed
  immediately without ever touching the queue;
* duplicate instances inside one submission are enqueued once and fanned
  out to every occurrence when the single result lands;
* duplicate instances *across* submissions coalesce too: a persistent
  :class:`InFlightIndex` keyed on the canonical problem hash maps every
  in-flight problem to its spool task, and the actual spool write happens
  under the index lock — so two concurrent submissions of the same problem
  (from any number of threads, or from the gateway's concurrent clients)
  produce exactly one spool task, with both submitters streaming the one
  result;
* everything else is enqueued lazily under the stream's backpressure
  window and yielded as workers publish results (or in submission order
  with ``ordered=True``).

``gather`` wraps the stream into the familiar :class:`BatchReport` when the
caller does want to block for everything.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.core.dwg import SSBWeighting
from repro.distributed.spool import WorkQueue
from repro.distributed.stream import ResultStream
from repro.distributed.worker import spool_cache
from repro.model.problem import AssignmentProblem
from repro.observability.tracing import Span, Tracer
from repro.runtime.cache import ResultCache, cache_get_with_source
from repro.runtime.payload import (PreparedTask, outcome_from_entry,
                                   prepare_tasks, task_payload)
from repro.runtime.registry import SolverRegistry, default_registry
from repro.runtime.runner import (BatchItemResult, BatchReport, BatchTask,
                                  batch_item)


@dataclass
class _Entry:
    """One submission slot: a prepared task plus its execution route."""

    prep: PreparedTask
    index: int
    cached_entry: Optional[Dict[str, Any]] = None
    cache_source: Optional[str] = None
    leader: Optional[int] = None     #: index of the identical task queued for us
    task_id: Optional[str] = None    #: set once the task is spooled
    coalesced: bool = False          #: attached to another submission's task
    span: Optional[Span] = None      #: the task's span, open until the result
    parent: Optional[Span] = None    #: span the task's span nests under


class InFlightIndex:
    """Canonical-problem-hash → in-flight spool task, across submissions.

    The per-submission ``leaders`` dict in :meth:`SolveService.submit` only
    coalesces duplicates *within* one call; without this index two
    concurrent submissions of the same problem would both enqueue and both
    solve.  The index is shared by every submission of one service (and by
    the gateway's concurrent clients), and :meth:`acquire` runs the actual
    spool write *inside* the lock — of any number of racing duplicate
    submitters, exactly one creates the spool task and the rest attach to
    it.

    Entries validate against the spool on every lookup
    (:meth:`WorkQueue.task_live`): a task that was dead-lettered or whose
    artifacts vanished (compaction, manual cleanup) never absorbs new
    submissions — those enqueue fresh.  :meth:`complete` drops an entry once
    its result has been observed, so later submissions of the same problem
    re-solve instead of chaining onto a stale task id forever.
    """

    def __init__(self, queue: WorkQueue) -> None:
        self._queue = queue
        self._lock = threading.Lock()
        self._by_key: Dict[str, str] = {}

    def lookup(self, key: str) -> Optional[str]:
        """The live in-flight task for ``key``, dropping stale entries."""
        with self._lock:
            return self._lookup_locked(key)

    def _lookup_locked(self, key: str) -> Optional[str]:
        task_id = self._by_key.get(key)
        if task_id is None:
            return None
        if not self._queue.task_live(task_id):
            del self._by_key[key]
            return None
        return task_id

    def acquire(self, key: str,
                submit: Callable[[], str]) -> Tuple[str, bool]:
        """``(task_id, created)``: attach to the in-flight task or spool one.

        ``submit`` runs under the index lock (one atomic spool write), which
        is what makes K racing duplicate submissions produce exactly one
        spool task.
        """
        with self._lock:
            task_id = self._lookup_locked(key)
            if task_id is not None:
                return task_id, False
            task_id = submit()
            self._by_key[key] = task_id
            return task_id, True

    def complete(self, key: str, task_id: str) -> None:
        """Forget ``key`` once ``task_id``'s outcome has been observed."""
        with self._lock:
            if self._by_key.get(key) == task_id:
                del self._by_key[key]

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_key)


@dataclass
class Submission:
    """Handle for one submitted sweep (input order is preserved)."""

    entries: List[_Entry]
    started: float = field(default_factory=time.perf_counter)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def cache_hits(self) -> int:
        return sum(1 for e in self.entries if e.cached_entry is not None)


class SolveService:
    """Submit assignment sweeps to a spool and stream their results.

    Parameters
    ----------
    spool:
        Spool directory or an existing :class:`WorkQueue`.
    cache:
        Result cache probed at submission; workers write it, and the
        service never does, so it must be the store the workers write.
        The default is the spool-colocated tiered store — the same one
        ``repro worker`` uses — so a result a worker published is a cache
        hit for every later submission.  Pass ``cache=None`` explicitly to
        disable; any other cache would never be filled.
    """

    def __init__(self, spool: Union[str, WorkQueue],
                 cache: Union[ResultCache, None, str] = "spool",
                 registry: Optional[SolverRegistry] = None,
                 base_seed: Optional[int] = None,
                 validate: bool = True,
                 tracer: Optional[Tracer] = None,
                 trace: bool = False,
                 trace_sample: float = 1.0) -> None:
        self.queue = WorkQueue(spool) if isinstance(spool, str) else spool
        if cache == "spool":
            cache = spool_cache(self.queue.directory)
        self.cache = cache
        self.registry = registry if registry is not None else default_registry()
        self.base_seed = base_seed
        self.validate = validate
        if tracer is None and trace:
            tracer = Tracer.for_spool(self.queue.directory,
                                      sample_rate=trace_sample,
                                      registry=self.queue.metrics)
        self.tracer = tracer
        #: persistent cross-submission coalescing index (see InFlightIndex)
        self.inflight = InFlightIndex(self.queue)
        self._coalesced_total = self.queue.metrics.counter(
            "repro_service_coalesced_total",
            "Duplicate submissions attached to an already in-flight task "
            "instead of enqueuing their own")

    # ------------------------------------------------------------------ submit
    def submit(self, tasks: Sequence[Union[BatchTask, AssignmentProblem]],
               method: str = "colored-ssb",
               weighting: Optional[SSBWeighting] = None,
               deadline_s: Optional[float] = None,
               **options: Any) -> Submission:
        """Prepare a sweep; nothing is enqueued until the stream pulls it.

        ``deadline_s`` gives every task a cooperative per-solve budget (the
        clock starts when a worker picks the task up, not at submission);
        anytime solvers publish their incumbent as a ``feasible`` partial
        when it fires.
        """
        normalized = []
        for task in tasks:
            if isinstance(task, BatchTask):
                normalized.append(task)
            else:
                normalized.append(BatchTask(problem=task, method=method,
                                            options=dict(options),
                                            weighting=weighting,
                                            tag=task.name,
                                            deadline_s=deadline_s))
        prepared = prepare_tasks(normalized, self.registry, self.base_seed)

        entries: List[_Entry] = []
        leaders: Dict[str, int] = {}
        for index, prep in enumerate(prepared):
            entry = _Entry(prep=prep, index=index)
            if self.cache is not None and prep.cacheable:
                cached, source = cache_get_with_source(self.cache, prep.key)
                if cached is not None:
                    entry.cached_entry = cached
                    entry.cache_source = source
            if entry.cached_entry is None:
                leader = leaders.get(prep.key)
                if leader is not None:
                    entry.leader = leader
                else:
                    leaders[prep.key] = index
            entries.append(entry)
        return Submission(entries=entries)

    def enqueue(self, submission: Submission) -> List[str]:
        """Eagerly spool every non-cached leader task (no backpressure).

        For fire-and-forget submission — results are left for the workers to
        publish; a later :meth:`stream`/:meth:`gather` (or raw
        :class:`~repro.distributed.stream.ResultStream`) can pick them up.
        A task identical to one already in flight (enqueued by a concurrent
        submission of this service) is coalesced: its entry attaches to the
        existing spool task, whose id is still returned.
        """
        task_ids: List[str] = []
        for entry in submission.entries:
            if (entry.cached_entry is None and entry.leader is None
                    and entry.task_id is None):
                task_ids.append(self._spool_entry(entry))
        return task_ids

    def _spool_entry(self, entry: _Entry,
                     payload: Optional[Dict[str, Any]] = None) -> str:
        """Spool one leader entry, coalescing onto an in-flight duplicate.

        Cacheable tasks route through the persistent :class:`InFlightIndex`:
        the spool write happens inside the index lock, so of any number of
        racing duplicate submissions exactly one creates the task and the
        rest attach to it (``entry.coalesced``).  Non-cacheable tasks —
        seedless stochastic draws — are independent samples by contract and
        never coalesce.  The payload (with its root tracing span) is built
        lazily when not supplied, so an eagerly-enqueued entry that attaches
        to an existing task opens no span of its own.
        """
        if not entry.prep.cacheable:
            entry.task_id = self.queue.submit(
                payload if payload is not None else self._payload(entry))
            return entry.task_id

        def spool() -> str:
            return self.queue.submit(
                payload if payload is not None else self._payload(entry))

        task_id, created = self.inflight.acquire(entry.prep.key, spool)
        if not created:
            entry.coalesced = True
            self._coalesced_total.inc()
        entry.task_id = task_id
        return task_id

    def _payload(self, entry: _Entry) -> Dict[str, Any]:
        """Build the spool payload, opening the task's span when traced.

        The span is created *before* the payload so its context rides along
        to whatever process solves the task; it stays open until
        :meth:`complete` (fire-and-forget submissions that are never
        streamed simply leave it unrecorded — child spans still share its
        trace id).  It is a trace root of its own unless ``entry.parent``
        is set (the gateway's request span), whose trace it then joins.
        Either way the tracer's problem-hash sampling decides whether the
        task is traced.
        """
        trace = None
        if self.tracer is not None and self.tracer.sampled(entry.prep.key):
            attrs = dict(method=entry.prep.spec.name,
                         tag=entry.prep.task.tag, index=entry.index)
            entry.span = (entry.parent.child("task", **attrs)
                          if entry.parent is not None else
                          self.tracer.root("task", **attrs))
            trace = entry.span.context()
        payload = task_payload(entry.prep, validate=self.validate, trace=trace)
        payload["index"] = entry.index
        return payload

    def complete(self, entry: _Entry, task_id: str,
                 outcome: Dict[str, Any]) -> None:
        """Close out ``entry`` once ``task_id``'s ``outcome`` was observed.

        Releases the in-flight index entry, so later identical submissions
        hit the result cache (or re-solve) instead of chaining onto this
        task id, and finishes the task's span.
        """
        if entry.prep.cacheable:
            self.inflight.complete(entry.prep.key, task_id)
        if entry.span is not None:
            entry.span.finish(status=outcome.get("status"),
                              ok=outcome.get("ok"),
                              objective=outcome.get("objective"),
                              cached=bool(outcome.get("cached")))
            entry.span = None

    # ------------------------------------------------------------------ stream
    def stream(self, submission: Submission,
               ordered: bool = False,
               window: Optional[int] = None,
               timeout: Optional[float] = None) -> Iterator[BatchItemResult]:
        """Yield one :class:`BatchItemResult` per submitted task.

        As-completed by default; ``ordered=True`` preserves input order.
        ``window`` bounds how many queue tasks are outstanding at once
        (backpressure: submission proceeds only as results drain).
        """
        # leaders to run on the queue, in input order; followers fan out
        leaders = [e for e in submission.entries
                   if e.cached_entry is None and e.leader is None]
        followers: Dict[int, List[_Entry]] = {}
        for entry in submission.entries:
            if entry.leader is not None:
                followers.setdefault(entry.leader, []).append(entry)

        # leaders already spooled (via enqueue) are waited on directly;
        # the rest are submitted lazily under the backpressure window
        id_to_index: Dict[str, int] = {}
        pre_submitted = []
        to_submit = []
        for entry in leaders:
            if entry.task_id is not None:
                id_to_index[entry.task_id] = entry.index
                pre_submitted.append(entry.task_id)
            else:
                to_submit.append(entry)

        def payloads() -> Iterator[Dict[str, Any]]:
            for entry in to_submit:
                yield self._payload(entry)

        def record(task_id: str, payload: Dict[str, Any]) -> None:
            id_to_index[task_id] = payload["index"]
            submission.entries[payload["index"]].task_id = task_id

        def spool(payload: Dict[str, Any]) -> str:
            # route lazy submissions through the in-flight index so
            # identical problems from concurrent submissions coalesce
            return self._spool_entry(submission.entries[payload["index"]],
                                     payload)

        stream = ResultStream(self.queue, task_ids=pre_submitted,
                              source=payloads(), window=window,
                              ordered=ordered, timeout=timeout,
                              on_submit=record, submit=spool)

        done: Dict[int, Dict[str, Any]] = {}    #: leader index -> outcome

        def item(entry: _Entry) -> BatchItemResult:
            if entry.cached_entry is not None:
                return batch_item(entry.index, entry.prep, outcome_from_entry(
                    entry.prep.key, entry.cached_entry, entry.cache_source))
            if entry.leader is not None:
                return batch_item(entry.index, entry.prep, done[entry.leader],
                                  cache_source="batch")
            return batch_item(entry.index, entry.prep, done[entry.index])

        def ready(entry: _Entry) -> bool:
            if entry.cached_entry is not None:
                return True
            return (entry.index if entry.leader is None
                    else entry.leader) in done

        position = 0

        def ordered_flush() -> Iterator[BatchItemResult]:
            nonlocal position
            while (position < len(submission.entries)
                   and ready(submission.entries[position])):
                yield item(submission.entries[position])
                position += 1

        if ordered:
            yield from ordered_flush()
        else:
            # cache hits first: they are ready by definition
            for entry in submission.entries:
                if entry.cached_entry is not None:
                    yield item(entry)
        for task_id, outcome in stream:
            index = id_to_index[task_id]
            entry = submission.entries[index]
            self.complete(entry, task_id, outcome)
            done[index] = outcome
            if ordered:
                yield from ordered_flush()
            else:
                yield item(entry)
                for follower in followers.get(index, ()):
                    yield item(follower)

    # ------------------------------------------------------------------ gather
    def gather(self, submission: Submission,
               window: Optional[int] = None,
               timeout: Optional[float] = None,
               workers: int = 0) -> BatchReport:
        """Block until every task finished; results in input order.

        ``workers`` is purely informational for the report (the service
        cannot know how many processes are pulling from the spool).
        """
        items = list(self.stream(submission, ordered=True, window=window,
                                 timeout=timeout))
        return BatchReport.tally(items,
                                 time.perf_counter() - submission.started,
                                 workers)

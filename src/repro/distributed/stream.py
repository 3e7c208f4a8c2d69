"""Streaming results out of the spool as they complete.

A sweep submitted to the distributed service should not block on the whole
:class:`~repro.runtime.runner.BatchReport`: the submitter wants the first
result when the first worker finishes, and a million-task sweep must not
require a million task files in flight at once.  :class:`ResultStream` is a
plain generator over the spool that provides both:

* **as-completed or ordered** — results are yielded the moment their file
  appears, or buffered and released in submission order (``ordered=True``);
* **backpressure** — with a ``window``, tasks are *submitted lazily* from
  ``source`` so that at most ``window`` of this stream's tasks are
  outstanding (submitted but not yet finished) at any time; each finished
  task tops the window back up.  A slow consumer therefore also slows
  submission — the spool never fills with more than ``window`` pending
  entries on this stream's behalf;
* **prompt delivery** — between scans the stream waits on a same-host
  wake-up endpoint (:mod:`repro.distributed.wake`), so a result acked on
  this host is picked up at once; ``poll_interval`` is only the fallback
  cadence for rings that never come (workers on other hosts);
* **liveness** — at most once per ``poll_interval`` a scan runs
  :meth:`WorkQueue.recover` *before* the deadline check, so tasks leased by
  a crashed worker are requeued even when no other worker notices —
  including one final recovery pass right before a ``timeout`` turns a
  wedged fleet into a :class:`StreamTimeout` instead of an infinite wait (a
  stream must never give up on a task whose expired lease that one pass
  would have requeued, nor leave the spool unrecovered for whoever waits
  next).  The wait is clamped to the remaining deadline, so the timeout
  fires on time instead of overshooting by up to a full ``poll_interval``.

Every finished task is read through :meth:`WorkQueue.outcome`, so
dead-lettered tasks surface as error results (``ok=False``,
``status="error"``) rather than silently never arriving, and every yielded
outcome carries a ``status`` (``optimal`` / ``feasible`` / ``timeout`` /
``cancelled`` / ``error``).  Anytime partials are surfaced *distinctly from
errors*: a worker that ran out of deadline publishes its incumbent with
``ok=True``, ``status="feasible"`` and an ``"interrupted"`` marker.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.distributed import wake
from repro.distributed.spool import WorkQueue


class StreamTimeout(RuntimeError):
    """Raised when a stream's overall deadline passes with tasks missing."""

    def __init__(self, missing: int, timeout: float) -> None:
        super().__init__(
            f"result stream timed out after {timeout:.3g}s with {missing} "
            f"task(s) outstanding — are any workers running against this "
            f"spool?")
        self.missing = missing


class ResultStream:
    """Iterate task results as workers publish them.

    Parameters
    ----------
    queue:
        The spool being drained by workers.
    task_ids:
        Already-submitted task ids to wait for (ordered mode yields in this
        order, interleaved with lazily submitted tasks in arrival order of
        registration).
    source:
        Optional iterable of payload dicts still to submit; consumed lazily,
        at most ``window`` at a time.  This is where backpressure comes
        from: nothing is written into the spool until the stream has room.
    window:
        Cap on this stream's outstanding (submitted, unfinished) tasks.
        ``None`` submits everything up front.
    ordered:
        Yield in registration order instead of completion order.
    timeout:
        Overall deadline in seconds; ``StreamTimeout`` when exceeded.
    submit:
        Replacement for ``queue.submit`` on the lazy-submission path —
        ``submit(payload) -> task_id``.  :class:`SolveService` passes its
        coalescing-aware spooler here so identical in-flight problems from
        concurrent submissions share one spool task.
    """

    def __init__(self, queue: WorkQueue,
                 task_ids: Iterable[str] = (),
                 source: Optional[Iterable[Dict[str, Any]]] = None,
                 window: Optional[int] = None,
                 ordered: bool = False,
                 timeout: Optional[float] = None,
                 poll_interval: Optional[float] = None,
                 on_submit: Optional[Any] = None,
                 submit: Optional[Any] = None) -> None:
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        self.queue = queue
        self.ordered = ordered
        self.timeout = timeout
        self.poll_interval = (queue.poll_interval if poll_interval is None
                              else poll_interval)
        self.on_submit = on_submit   #: callback(task_id, payload) per lazy submit
        self.submit = submit if submit is not None else queue.submit
        self._pending: Dict[str, int] = {tid: i
                                         for i, tid in enumerate(task_ids)}
        self._next_order = len(self._pending)
        self._source = iter(source) if source is not None else None
        self._source_done = source is None
        self.window = window

    # ------------------------------------------------------------------ admin
    def add(self, task_id: str) -> None:
        """Register one more already-submitted task to wait for."""
        self._pending[task_id] = self._next_order
        self._next_order += 1

    @property
    def outstanding(self) -> int:
        """Tasks submitted through this stream and not yet yielded-ready."""
        return len(self._pending)

    def _top_up(self) -> None:
        while (not self._source_done
               and (self.window is None or len(self._pending) < self.window)):
            try:
                payload = next(self._source)
            except StopIteration:
                self._source_done = True
                return
            task_id = self.submit(payload)
            self.add(task_id)
            if self.on_submit is not None:
                self.on_submit(task_id, payload)

    # -------------------------------------------------------------- iteration
    def __iter__(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield ``(task_id, result)`` pairs; see the module docstring."""
        with wake.Endpoint(self.queue.directory, wake.RESULT) as endpoint:
            yield from self._scan(endpoint)

    def _scan(self, endpoint: wake.Endpoint
              ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        deadline = (None if self.timeout is None
                    else time.monotonic() + self.timeout)
        ready: Dict[int, Tuple[str, Dict[str, Any]]] = {}
        emit_cursor = 0
        next_recover = 0.0
        while self._pending or not self._source_done or ready:
            self._top_up()
            progressed = False
            # one directory listing per scan, not one failed open() per
            # pending task — a 10k-task sweep polls a (possibly network)
            # filesystem every interval
            finished = self._pending.keys() & set(self.queue.result_ids())
            dead = ((self._pending.keys() - finished)
                    & set(self.queue.failure_ids())
                    if len(finished) < len(self._pending) else set())
            for task_id in [tid for tid in self._pending
                            if tid in finished or tid in dead]:
                outcome = self.queue.outcome(task_id)
                if outcome is None:
                    continue              # torn rename race; next scan has it
                order = self._pending.pop(task_id)
                progressed = True
                if self.ordered:
                    ready[order] = (task_id, outcome)
                else:
                    yield task_id, outcome
            while self.ordered and emit_cursor in ready:
                yield ready.pop(emit_cursor)
                emit_cursor += 1
            if not self._pending and self._source_done and not ready:
                return
            if progressed:
                continue        # a finished task freed window room: no sleep
            # recovery runs BEFORE the deadline check: an expired lease is
            # requeued even on the very last pass, so the stream never times
            # out on a task one recovery would have put back — and whoever
            # polls this spool next inherits a recovered queue, not a wedge
            now = time.monotonic()
            expired = deadline is not None and now >= deadline
            if expired or now >= next_recover:
                self.queue.recover()
                next_recover = now + self.poll_interval
            if expired:
                raise StreamTimeout(len(self._pending), self.timeout)
            wait_s = self.poll_interval
            if deadline is not None:
                # clamp to the remaining budget so the timeout fires on time
                # instead of overshooting by up to a full poll interval
                wait_s = min(wait_s, max(deadline - now, 0.0))
            endpoint.wait(wait_s)

"""Durable filesystem work queue (the spool).

The broker behind the distributed solve service is a directory, not a server:
any number of ``repro worker`` processes — on any host that can see the same
filesystem — pull tasks from it concurrently with no coordinator and no
dependencies beyond ``os.rename``.  Layout::

    spool/
      tasks/      pending task files, claimable by any worker
      claimed/    tasks currently leased to a worker (mtime = lease heartbeat)
      results/    one result file per finished task id
      failed/     dead-lettered tasks (requeued past ``max_requeues``)
      quarantine/ corrupt files moved aside for forensics, never re-read
      poison/     crash markers written around each solve (see worker.py)
      tmp/        staging area for atomic writes
      wake/       same-host wake-up FIFOs of blocked waiters (see wake.py)

Every state transition is a single atomic ``os.replace``/``os.rename`` on one
filesystem, which gives the queue its guarantees:

* **claim** renames ``tasks/<name>`` to ``claimed/<name>`` — exactly one of
  any number of racing workers wins (the losers get ``FileNotFoundError`` and
  move on), so a task is never handed out twice while its lease is live;
* **ack** writes the result via tempfile + rename and then drops the claim —
  a crash before the rename loses nothing, a crash after it loses only the
  claim file, which recovery simply requeues and the next claimant drops on
  seeing the existing result;
* **requeue/recovery** renames an expired ``claimed/`` entry back into
  ``tasks/`` with its attempt counter bumped (the counter lives in the file
  *name*, so the bump is still a pure rename).

A worker that is SIGKILL'd mid-task leaves only a ``claimed/`` entry behind;
once its lease (claim-file mtime + ``lease_timeout``) expires, any call to
:meth:`WorkQueue.recover` — workers run it opportunistically while polling,
as does the submitter's result stream — moves the task back for another
worker.  Delivery is therefore *at-least-once*: a live worker that outlives
its lease can race its replacement, in which case both solve the task and the
result file (keyed by task id) is simply overwritten with identical content.
Leases should be sized generously above the worst single solve time.

**Failure hardening.**  All filesystem calls route through a
:class:`~repro.runtime.fsio.FilesystemAdapter` (prod default: passthrough;
the chaos harness swaps in a fault-injecting shim), transient I/O errors on
writes retry under a shared :class:`~repro.runtime.fsio.RetryPolicy`, and a
file that should be JSON but is not — a torn write, bit rot, a truncated
submit — is **quarantined** into ``quarantine/`` (with a
``repro_spool_quarantined_total{reason}`` counter and a ``quarantine`` event)
instead of crashing a reader.  A quarantined *task* also gets a dead-letter
record so its submitter sees a typed error result rather than a hang.

**Waiting.**  Blocking waiters (:meth:`WorkQueue.claim`,
:meth:`WorkQueue.wait_result`, result streams, the gateway) register a
same-host wake-up endpoint under ``wake/`` and the transition that concerns
them rings it: submit, requeue and release ring ``claim`` waiters; ack,
dead-letter and progress ring ``result`` waiters (see
:mod:`repro.distributed.wake`).  The ring only cuts a sleep short — the
directories stay the only source of truth — so ``poll_interval`` is the
*fallback* cadence: how long a waiter on another host, or one whose ring
was lost, waits before scanning anyway, and how often lease recovery runs
while a waiter blocks.

Task files are named ``<task_id>.a<attempt>.json`` where ``task_id`` embeds a
millisecond timestamp plus random suffix, so a plain sorted directory listing
is FIFO submission order and ids never collide across submitters.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.distributed import wake
from repro.observability import events as _events
from repro.observability.events import EventLog
from repro.observability.metrics import MetricsRegistry, default_metrics
from repro.runtime.fsio import FilesystemAdapter, RetryPolicy, default_fs

TASKS_DIR = "tasks"
CLAIMED_DIR = "claimed"
RESULTS_DIR = "results"
FAILED_DIR = "failed"
QUARANTINE_DIR = "quarantine"
POISON_DIR = "poison"
TMP_DIR = "tmp"

_SUBDIRS = (TASKS_DIR, CLAIMED_DIR, RESULTS_DIR, FAILED_DIR, QUARANTINE_DIR,
            POISON_DIR, TMP_DIR)


class SpoolError(RuntimeError):
    """Raised on unrecoverable spool corruption or misuse."""


_SEQUENCE = itertools.count()


def new_task_id() -> str:
    """A sortable, collision-free task id.

    Millisecond timestamp, then a per-process sequence number (strict FIFO
    for one submitter even within a millisecond), then entropy so ids from
    different submitters can never collide.  Contains no ``.``, so the task
    id of any spool artifact is recoverable from its filename alone.
    """
    return (f"{int(time.time() * 1000):013d}-{next(_SEQUENCE):08d}-"
            f"{uuid.uuid4().hex[:8]}")


def trace_fields(payload: Any,
                 started: Optional[float] = None) -> Dict[str, Any]:
    """A record's trace fields: ``{}`` untraced, else the ``trace_id``, plus,
    given the operation's wall-clock ``started``, the fields that make the
    record the operation's span (parented on the payload's span)."""
    trace = payload.get("trace") if isinstance(payload, dict) else None
    if not isinstance(trace, dict) or not trace.get("trace_id"):
        return {}
    fields: Dict[str, Any] = {"trace_id": str(trace["trace_id"])}
    if started is not None:
        fields.update(span_id=os.urandom(4).hex(), start=started,
                      dur_s=round(max(0.0, time.time() - started), 9),
                      pid=os.getpid())
        if trace.get("span_id"):
            fields["parent_id"] = trace["span_id"]
    return fields


def _split_name(name: str) -> Optional[Dict[str, Any]]:
    """Parse ``<task_id>.a<attempt>.json`` → parts, or None for foreign files."""
    if not name.endswith(".json"):
        return None
    stem = name[: -len(".json")]
    task_id, sep, attempt_text = stem.rpartition(".a")
    if not sep or not task_id or not attempt_text.isdigit():
        return None
    return {"task_id": task_id, "attempt": int(attempt_text)}


@dataclass
class SpoolTask:
    """One claimed unit of work, held under lease by a worker."""

    task_id: str
    payload: Dict[str, Any]
    attempt: int              #: 0 on first delivery, +1 per requeue
    path: str                 #: current location under ``claimed/``

    @property
    def name(self) -> str:
        return os.path.basename(self.path)


class WorkQueue:
    """Multi-process, crash-safe task broker over a shared directory.

    Parameters
    ----------
    directory:
        The spool root; subdirectories are created on demand.
    lease_timeout:
        Seconds a claim may go without a heartbeat before recovery requeues
        it.  Size it well above the worst expected single-task solve time.
    max_requeues:
        After this many requeues a task is dead-lettered into ``failed/``
        instead of being retried forever (a poison task must not wedge the
        fleet).
    poll_interval:
        Fallback cadence of blocking waits (:meth:`claim`,
        :meth:`wait_result`, result streams, the gateway): a waiter rescans
        at least this often when no same-host wake-up arrives, and runs
        lease recovery at most this often.
    events:
        Event log for lifecycle events (submit/claim/ack/...).  By default
        one is opened at ``<directory>/events.jsonl`` so ``repro audit``
        works with no flags; pass ``False`` to disable logging, or an
        :class:`~repro.observability.events.EventLog` to redirect it.  A
        traced task's submit/claim/ack/requeue event is also its span.
    metrics:
        Metrics registry for transition counters and depth gauges; defaults
        to the process-wide :func:`default_metrics` registry.
    fs:
        Filesystem adapter every call routes through; defaults to the
        passthrough.  The chaos harness passes a
        :class:`~repro.distributed.faults.FaultyFS` here.
    retry:
        Retry policy for transient I/O on the write paths (submit, ack,
        dead-letter, progress).  Defaults to a fresh
        :class:`~repro.runtime.fsio.RetryPolicy`.
    """

    def __init__(self, directory: str, lease_timeout: float = 60.0,
                 max_requeues: int = 5, poll_interval: float = 0.05,
                 events=None,
                 metrics: Optional[MetricsRegistry] = None,
                 fs: Optional[FilesystemAdapter] = None,
                 retry: Optional[RetryPolicy] = None) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_requeues < 0:
            raise ValueError("max_requeues must be >= 0")
        self.directory = directory
        self.lease_timeout = lease_timeout
        self.max_requeues = max_requeues
        self.poll_interval = poll_interval
        self.fs = fs if fs is not None else default_fs()
        self.retry = retry if retry is not None else RetryPolicy()
        for sub in _SUBDIRS:
            os.makedirs(os.path.join(directory, sub), exist_ok=True)
        if events is None:
            events = EventLog.for_spool(directory, fs=self.fs)
        self.events: Optional[EventLog] = (
            events if isinstance(events, EventLog) else None)
        self.metrics = metrics if metrics is not None else default_metrics()
        self._transitions = self.metrics.counter(
            "repro_spool_transitions_total",
            "Spool state transitions by kind (submit/claim/ack/...)")
        self._quarantined = self.metrics.counter(
            "repro_spool_quarantined_total",
            "Corrupt spool files moved into quarantine/, by reason")

    def _emit(self, kind: str, task_id: Optional[str] = None,
              payload: Optional[Dict[str, Any]] = None,
              started: Optional[float] = None, **fields: Any) -> None:
        """Count and log one transition, traced per :func:`trace_fields`."""
        self._transitions.inc(kind=kind)
        if self.events is None:
            return
        fields.update(trace_fields(payload, started))
        if "span_id" in fields:
            self.metrics.counter(
                _events.SPANS_TOTAL,
                "Finished tracing spans by span name").inc(kind=kind)
        self.events.emit(kind, task_id=task_id, **fields)

    # ------------------------------------------------------------ primitives
    def _dir(self, sub: str) -> str:
        return os.path.join(self.directory, sub)

    def _write_atomic(self, target: str, data: Dict[str, Any],
                      op: str = "spool_write") -> None:
        self.retry.call(self.fs.write_json_atomic, target, data,
                        tmp_dir=self._dir(TMP_DIR), op=op)

    def _listing(self, sub: str) -> List[str]:
        try:
            return sorted(self.fs.listdir(self._dir(sub)))
        except OSError:
            return []

    def _read_json(self, path: str) -> Tuple[Optional[Dict[str, Any]],
                                             Optional[str]]:
        """Guarded JSON read: ``(data, error)``.

        ``error`` is ``None`` on success, ``"missing"`` when the file is
        gone (a lost race, not a fault), ``"io"`` on a persistent transient
        error, and ``"corrupt"`` when the bytes exist but are not a JSON
        object — the case that must flow to quarantine, never raise into
        the claim or solve path.
        """
        try:
            raw = self.retry.call(self.fs.read_bytes, path, op="spool_read")
        except FileNotFoundError:
            return None, "missing"
        except OSError:
            return None, "io"
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None, "corrupt"
        if not isinstance(data, dict):
            return None, "corrupt"
        return data, None

    # ------------------------------------------------------------ quarantine
    def quarantine(self, path: str, reason: str,
                   task_id: Optional[str] = None) -> Optional[str]:
        """Move a corrupt file into ``quarantine/`` (atomic rename).

        Returns the quarantine path, or ``None`` when the file vanished
        first (a concurrent reader won the same race) or the rename itself
        failed — in which case the file stays put and the next reader
        retries.  Never raises.
        """
        name = os.path.basename(path)
        target = os.path.join(self._dir(QUARANTINE_DIR), name)
        try:
            if self.fs.exists(target):
                target = f"{target}.{uuid.uuid4().hex[:6]}"
        except OSError:
            pass
        try:
            self.fs.rename(path, target)
        except OSError:
            return None
        self._quarantined.inc(reason=reason)
        self._emit(_events.EVENT_QUARANTINE, task_id, reason=reason,
                   source=name)
        return target

    def quarantined_ids(self) -> List[str]:
        """Task ids recoverable from quarantined file names.

        Task ids never contain ``.``, so the id of any quarantined spool
        artifact (task, claim, result or dead-letter file) is the part of
        its name before the first dot.
        """
        ids = []
        for name in self._listing(QUARANTINE_DIR):
            stem = name.split(".", 1)[0]
            if stem:
                ids.append(stem)
        return ids

    def _dead_letter_record(self, task_id: str, attempt: int, error: str,
                            kind: str,
                            payload: Optional[Dict[str, Any]] = None,
                            **extra: Any) -> bool:
        """Write ``failed/<task_id>.json`` (the structured error envelope).

        Returns False — without raising — when even the retried write
        fails; callers must then leave the source artifact in place so a
        later pass can retry the dead-lettering.
        """
        record = {"task_id": task_id, "attempt": attempt, "error": error,
                  "kind": kind, "payload": payload}
        record.update(extra)
        # stamp the originating trace so audit/chaos triage can correlate a
        # dead-lettered task back to its submitter's trace
        record.update(trace_fields(payload))
        try:
            self._write_atomic(
                os.path.join(self._dir(FAILED_DIR), f"{task_id}.json"),
                record, op="spool_dead_letter")
        except OSError:
            return False
        self._emit(_events.EVENT_DEAD_LETTER, task_id, payload,
                   attempt=attempt, reason=kind, error=error)
        wake.ring(self.directory, wake.RESULT)
        return True

    # ---------------------------------------------------------------- submit
    def submit(self, payload: Dict[str, Any],
               task_id: Optional[str] = None) -> str:
        """Enqueue one JSON-safe payload; returns the task id."""
        task_id = task_id or new_task_id()
        if "/" in task_id or task_id.startswith("."):
            raise SpoolError(f"invalid task id {task_id!r}")
        target = os.path.join(self._dir(TASKS_DIR), f"{task_id}.a0.json")
        started = time.time()
        self._write_atomic(target, payload, op="spool_submit")
        self._emit(_events.EVENT_SUBMIT, task_id, payload, started)
        wake.ring(self.directory, wake.CLAIM)
        return task_id

    def submit_many(self, payloads: Iterable[Dict[str, Any]]) -> List[str]:
        return [self.submit(payload) for payload in payloads]

    # ----------------------------------------------------------------- claim
    def claim(self, block: bool = False, timeout: Optional[float] = None,
              ) -> Optional[SpoolTask]:
        """Atomically take one pending task, oldest first.

        Non-blocking by default (``None`` when the spool is empty); with
        ``block=True`` waits until a task arrives or ``timeout`` elapses,
        woken early by a same-host submit, requeue or release.  Scans also
        run :meth:`recover`, at most once per ``poll_interval``, so expired
        leases resurface even when every submitter is gone.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        next_recover = 0.0
        with wake.Endpoint(self.directory, wake.CLAIM) as endpoint:
            while True:
                now = time.monotonic()
                if now >= next_recover:
                    self.recover()
                    next_recover = now + self.poll_interval
                task = self._try_claim()
                if task is not None:
                    return task
                wait_s = self.poll_interval
                if deadline is not None:
                    wait_s = min(wait_s, deadline - time.monotonic())
                if not block or wait_s <= 0:
                    return None
                endpoint.wait(wait_s)

    def _try_claim(self) -> Optional[SpoolTask]:
        for name in self._listing(TASKS_DIR):
            parts = _split_name(name)
            if parts is None:
                continue
            source = os.path.join(self._dir(TASKS_DIR), name)
            target = os.path.join(self._dir(CLAIMED_DIR), name)
            if self._result_exists(parts["task_id"]):
                # a slow ex-claimant finished after this entry was requeued:
                # the task is done, silently retire the duplicate delivery
                try:
                    self.fs.unlink(source)
                except OSError:
                    pass
                continue
            try:
                self.fs.rename(source, target)
            except OSError as exc:
                if exc.errno in (errno.ENOENT, errno.EEXIST):
                    continue       # another worker won the race
                continue           # transient (EIO, ...): skip this scan
            try:
                self.fs.utime(target)   # lease heartbeat starts at claim time
            except OSError:
                pass
            payload, error = self._read_json(target)
            if error == "corrupt":
                # a torn or garbage submit: this payload can never be
                # solved — quarantine the file and dead-letter the task so
                # its submitter gets a typed error instead of a hang
                if self._dead_letter_record(
                        parts["task_id"], parts["attempt"],
                        error="task payload is not valid JSON "
                              "(torn write or corruption); quarantined",
                        kind="quarantined"):
                    self.quarantine(target, reason="task_payload",
                                    task_id=parts["task_id"])
                # if even the dead-letter write failed, leave the claim:
                # its lease expires and a later pass retries the path
                continue
            if error is not None:
                continue           # vanished or transient: next scan decides
            self._emit(_events.EVENT_CLAIM, parts["task_id"], payload,
                       time.time(), attempt=parts["attempt"])
            return SpoolTask(task_id=parts["task_id"], payload=payload,
                             attempt=parts["attempt"], path=target)
        return None

    def renew(self, task: SpoolTask) -> bool:
        """Heartbeat a held lease; False when the claim no longer exists
        (recovery already requeued it — the worker should drop the task)."""
        try:
            self.fs.utime(task.path)
            return True
        except OSError:
            return False

    def publish_progress(self, task: SpoolTask,
                         progress: Dict[str, Any]) -> bool:
        """Write best-so-far progress into the claim file and renew the lease.

        The claim file is atomically replaced with the original payload plus
        a ``"progress"`` key (best objective, incumbent count, …), so any
        observer listing ``claimed/`` can read what a long solve has in hand;
        the replace also bumps the file's mtime, making this a superset of
        :meth:`renew`.  Returns False when the claim is gone (requeued or
        acked) — like a failed renew, the worker should treat the lease as
        lost.  A lost race against recovery can briefly resurrect the claim
        file; that only re-triggers recovery later, which the at-least-once
        contract already tolerates.
        """
        try:
            if not self.fs.exists(task.path):
                return False
        except OSError:
            return False
        try:
            self._write_atomic(task.path, {**task.payload,
                                           "progress": dict(progress)},
                               op="spool_progress")
            self._emit(_events.EVENT_PROGRESS, task.task_id,
                       progress=dict(progress))
            wake.ring(self.directory, wake.RESULT)
            return True
        except OSError:
            return False

    def progress(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The latest progress record a worker published for a claimed task.

        Long solves publish best-so-far incumbents into their claim file on
        every lease heartbeat (:meth:`publish_progress`); this reads the
        ``"progress"`` key back out for any observer — ``repro top``, the
        gateway's SSE stream — without touching the lease.  Returns ``None``
        when the task is not currently claimed, has published no progress
        yet, or the claim file is mid-replace (a lost read race, retried by
        the caller's next poll).
        """
        for name in self._listing(CLAIMED_DIR):
            parts = _split_name(name)
            if parts is None or parts["task_id"] != task_id:
                continue
            data, error = self._read_json(
                os.path.join(self._dir(CLAIMED_DIR), name))
            if error is not None or data is None:
                return None
            record = data.get("progress")
            return dict(record) if isinstance(record, dict) else None
        return None

    def task_live(self, task_id: str) -> bool:
        """True while attaching a duplicate submission to this task is sound.

        A task is *live* when it is pending, claimed, or already has a
        published result (attaching then is just an immediate read).  A
        dead-lettered or vanished task is **not** live: new submissions of
        the same problem must enqueue fresh rather than inherit a terminal
        failure.  This is the validity check behind the service's in-flight
        coalescing index.
        """
        if self._result_exists(task_id):
            return True
        for sub in (TASKS_DIR, CLAIMED_DIR):
            for name in self._listing(sub):
                parts = _split_name(name)
                if parts is not None and parts["task_id"] == task_id:
                    return True
        return False

    # ------------------------------------------------------------ completion
    def _result_path(self, task_id: str) -> str:
        return os.path.join(self._dir(RESULTS_DIR), f"{task_id}.json")

    def _result_exists(self, task_id: str) -> bool:
        try:
            return self.fs.exists(self._result_path(task_id))
        except OSError:
            return False

    def ack(self, task: SpoolTask, result: Dict[str, Any]) -> None:
        """Publish the result, then release the claim.

        Raises ``OSError`` when even the retried result write fails — the
        worker then nacks the task so another attempt can publish.
        """
        payload = dict(result)
        payload.setdefault("task_id", task.task_id)
        payload.setdefault("attempt", task.attempt)
        started = time.time()
        self._write_atomic(self._result_path(task.task_id), payload,
                           op="spool_ack")
        self._emit(_events.EVENT_ACK, task.task_id, task.payload, started,
                   attempt=task.attempt, method=payload.get("method"),
                   status=payload.get("status"))
        wake.ring(self.directory, wake.RESULT)
        try:
            self.fs.unlink(task.path)
        except OSError:
            pass                   # lease expired and was requeued; harmless

    def nack(self, task: SpoolTask) -> None:
        """Return a claimed task to the queue immediately (attempt + 1)."""
        self._requeue(os.path.basename(task.path))

    def release(self, task: SpoolTask) -> bool:
        """Return a claimed task *without* consuming a retry attempt.

        For cooperative shutdown: the task was never actually attempted, so
        — unlike :meth:`nack` — the attempt counter stays put and a task
        released by any number of rolling worker restarts can never drift
        into the dead-letter path.  A pure rename back into ``tasks/`` under
        the same name; False when the claim is already gone (acked or
        recovered meanwhile).
        """
        target = os.path.join(self._dir(TASKS_DIR), task.name)
        try:
            self.fs.rename(task.path, target)
        except OSError:
            return False
        self._emit(_events.EVENT_RELEASE, task.task_id, attempt=task.attempt)
        wake.ring(self.directory, wake.CLAIM)
        return True

    def fail(self, task: SpoolTask, error: str, kind: str = "failed",
             **extra: Any) -> None:
        """Dead-letter a claimed task (no more retries).

        ``kind`` labels the structured error envelope (``"failed"`` for an
        ordinary solve failure, ``"poison"`` for the worker's crash-loop
        breaker, ...); ``extra`` fields land in the record verbatim — in
        particular a ``details`` dict of structured diagnostics (e.g. a
        FrontierExplosion's labels-created / peak-frontier counts) is
        surfaced by :class:`~repro.distributed.stream.ResultStream` and
        ``repro audit``.
        """
        self._dead_letter_record(task.task_id, task.attempt, error=error,
                                 kind=kind, payload=task.payload, **extra)
        try:
            self.fs.unlink(task.path)
        except OSError:
            pass

    # -------------------------------------------------------------- recovery
    def recover(self, now: Optional[float] = None) -> int:
        """Requeue every claimed task whose lease has expired.

        Returns the number of tasks moved.  Safe to call from any process at
        any time; workers and result streams call it opportunistically.
        """
        if now is None:
            try:
                now = self.fs.time()
            except OSError:
                now = time.time()
        moved = 0
        for name in self._listing(CLAIMED_DIR):
            parts = _split_name(name)
            if parts is None:
                continue
            path = os.path.join(self._dir(CLAIMED_DIR), name)
            try:
                age = now - self.fs.stat(path).st_mtime
            except OSError:
                continue           # acked or requeued meanwhile
            if age < self.lease_timeout:
                continue
            if self._result_exists(parts["task_id"]):
                # finished but the claim unlink was lost: just drop the claim
                try:
                    self.fs.unlink(path)
                except OSError:
                    pass
                continue
            if self._requeue(name):
                moved += 1
        return moved

    def _requeue(self, claimed_name: str) -> bool:
        parts = _split_name(claimed_name)
        if parts is None:
            return False
        source = os.path.join(self._dir(CLAIMED_DIR), claimed_name)
        attempt = parts["attempt"] + 1
        if attempt > self.max_requeues:
            payload, error = self._read_json(source)
            if not self._dead_letter_record(
                    parts["task_id"], parts["attempt"],
                    error=f"requeued more than max_requeues="
                          f"{self.max_requeues} times (poison task or "
                          f"fleet-wide crash loop)",
                    kind="max_requeues", payload=payload):
                return False       # record write failed: leave the claim
            if error == "corrupt":
                self.quarantine(source, reason="task_payload",
                                task_id=parts["task_id"])
            else:
                try:
                    self.fs.unlink(source)
                except OSError:
                    pass
            return False
        target = os.path.join(self._dir(TASKS_DIR),
                              f"{parts['task_id']}.a{attempt}.json")
        try:
            self.fs.rename(source, target)
        except OSError:
            return False           # acked or reclaimed concurrently
        # requeues are rare (lease expiry only), so the extra read purely
        # for trace correlation stays off the hot path
        payload, _read_error = self._read_json(target)
        self._emit(_events.EVENT_REQUEUE, parts["task_id"], payload,
                   time.time(), attempt=attempt)
        wake.ring(self.directory, wake.CLAIM)
        return True

    # --------------------------------------------------------------- results
    def result(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The published result of a task, or None while it is outstanding.

        A result file that exists but does not parse — a torn write landed
        past the atomic rename, or the disk corrupted it — is quarantined
        and replaced by a dead-letter record (``kind="result_corrupted"``),
        so the submitter's next poll surfaces a typed error instead of
        waiting forever on a file that will never parse.
        """
        path = self._result_path(task_id)
        data, error = self._read_json(path)
        if error == "corrupt":
            if self.quarantine(path, reason="result",
                               task_id=task_id) is not None:
                self._dead_letter_record(
                    task_id, attempt=-1,
                    error="published result file was corrupt and has been "
                          "quarantined; the solve outcome is lost",
                    kind="result_corrupted")
            return None
        return data

    def failure(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The dead-letter record of a task, if it was dead-lettered.

        A corrupt record is quarantined and a synthesized envelope returned
        — a dead-lettered task must stay visibly dead-lettered even when
        its record file rotted.
        """
        path = os.path.join(self._dir(FAILED_DIR), f"{task_id}.json")
        data, error = self._read_json(path)
        if error == "corrupt":
            self.quarantine(path, reason="dead_letter_record",
                            task_id=task_id)
            return {"task_id": task_id, "kind": "quarantined",
                    "error": "dead-letter record was corrupt and has been "
                             "quarantined"}
        return data

    def result_ids(self) -> List[str]:
        """Task ids with a published result (one directory listing)."""
        return [name[: -len(".json")] for name in self._listing(RESULTS_DIR)
                if name.endswith(".json")]

    def failure_ids(self) -> List[str]:
        """Task ids with a dead-letter record (one directory listing)."""
        return [name[: -len(".json")] for name in self._listing(FAILED_DIR)
                if name.endswith(".json")]

    def outcome(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The outcome of a finished task, or None while it is outstanding.

        A published result comes back with its ``status`` filled in: results
        from older workers (or hand-written files) default to ``"feasible"``
        on success — a valid assignment with no proof claim — and
        ``"error"`` otherwise.  A dead-lettered task comes back as an error
        outcome: ``ok=False``, ``status="error"``, the record's ``error``,
        its failure class as ``error_kind`` (poison / quarantined /
        max_requeues / result_corrupted / failed), its structured
        ``details`` and ``dead_lettered=True``.  Every waiter — result
        streams, :meth:`wait_result`, the gateway — reads a finished task
        here.
        """
        result = self.result(task_id)
        if result is not None:
            if not result.get("status"):
                result["status"] = "feasible" if result.get("ok") else "error"
            return result
        failure = self.failure(task_id)
        if failure is None:
            return None
        outcome = {"task_id": task_id, "ok": False, "status": "error",
                   "error": failure.get("error", "dead-lettered"),
                   "dead_lettered": True}
        if failure.get("kind"):
            outcome["error_kind"] = failure["kind"]
        if failure.get("details"):
            outcome["details"] = failure["details"]
        return outcome

    def wait_result(self, task_id: str,
                    timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Block until a task finishes; its :meth:`outcome`, or None on timeout.

        Woken early by a same-host ack or dead-letter; lease recovery runs
        at most once per ``poll_interval`` while waiting.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        next_recover = 0.0
        with wake.Endpoint(self.directory, wake.RESULT) as endpoint:
            while True:
                outcome = self.outcome(task_id)
                if outcome is not None:
                    return outcome
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    return None
                if now >= next_recover:
                    self.recover()
                    next_recover = now + self.poll_interval
                wait_s = self.poll_interval
                if deadline is not None:
                    wait_s = min(wait_s, deadline - time.monotonic())
                endpoint.wait(wait_s)

    # ------------------------------------------------------------ accounting
    def counts(self) -> Dict[str, int]:
        """Spool occupancy: pending / claimed / results / failed / quarantined.

        Also publishes each depth as a ``repro_spool_depth{state=...}``
        gauge, so any caller that polls occupancy keeps the registry fresh.
        """
        occupancy = {
            "pending": sum(1 for n in self._listing(TASKS_DIR)
                           if _split_name(n)),
            "claimed": sum(1 for n in self._listing(CLAIMED_DIR)
                           if _split_name(n)),
            "results": sum(1 for n in self._listing(RESULTS_DIR)
                           if n.endswith(".json")),
            "failed": sum(1 for n in self._listing(FAILED_DIR)
                          if n.endswith(".json")),
            "quarantined": len(self._listing(QUARANTINE_DIR)),
        }
        depth = self.metrics.gauge(
            "repro_spool_depth", "Spool occupancy by state")
        for state, value in occupancy.items():
            depth.set(value, state=state)
        return occupancy

    def purge_results(self) -> int:
        """Delete published results (e.g. between benchmark repetitions)."""
        removed = 0
        for name in self._listing(RESULTS_DIR):
            if name.endswith(".json"):
                try:
                    self.fs.unlink(os.path.join(self._dir(RESULTS_DIR), name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def sweep_tmp(self, grace_s: float = 3600.0,
                  now: Optional[float] = None) -> int:
        """Reap orphaned ``*.tmp`` staging files across the spool.

        Sweeps ``tmp/`` (the normal staging area) **and** ``claimed/`` /
        ``results/`` / ``failed/`` (where a writer using a colocated temp
        dir could have died between ``mkstemp`` and ``os.replace``).  The
        age guard keeps in-flight atomic writes safe: only files older than
        ``grace_s`` are removed.  ``repro serve`` runs this on the janitor
        timer.
        """
        from repro.distributed.janitor import sweep_stale_tmp

        return sweep_stale_tmp(
            [self._dir(sub) for sub in (TMP_DIR, CLAIMED_DIR, RESULTS_DIR,
                                        FAILED_DIR)],
            grace_s=grace_s, now=now, fs=self.fs)

    def compact_results(self, max_count: Optional[int] = None,
                        max_bytes: Optional[int] = None,
                        max_age_s: Optional[float] = None,
                        now: Optional[float] = None):
        """Cap the ``results/`` directory by count / bytes / age.

        An always-on service publishes one result file per finished task and
        nothing ever removed them short of a full :meth:`purge_results`; this
        reuses :class:`~repro.distributed.janitor.CacheJanitor`'s
        oldest-mtime-first policy (reads do not touch result mtimes, so the
        order is oldest-*published*-first).  ``repro serve`` runs it on the
        janitor timer.  A compacted result a stream still waits on simply
        re-solves when the task is resubmitted — size the caps well above
        the fleet's in-flight window.  The sweep also reaps abandoned
        ``*.tmp`` staging files in ``claimed/`` and ``tmp/`` (age-guarded).
        Returns the janitor's report.
        """
        from repro.distributed.janitor import CacheJanitor

        janitor = CacheJanitor(self._dir(RESULTS_DIR),
                               max_entries=max_count,
                               max_bytes=max_bytes,
                               max_age_s=max_age_s,
                               extra_tmp_dirs=(self._dir(CLAIMED_DIR),
                                               self._dir(TMP_DIR)),
                               fs=self.fs)
        return janitor.collect(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"WorkQueue({self.directory!r}, {self.counts()})"


# ------------------------------------------------------------------ sharding
def _ring_point(text: str) -> int:
    import hashlib

    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class ShardRouter:
    """Consistent-hash routing over several spool shards, with failover.

    One spool directory is one shard; scaling the fleet past a single
    directory's filesystem means splitting traffic across N of them.  The
    router hashes each task's canonical problem key onto a ring of
    ``replicas`` virtual points per shard, so:

    * the same problem always lands on the same shard (which is what makes
      cross-client request coalescing work — duplicates meet in one spool);
    * adding or removing a shard remaps only ~1/N of the key space;
    * an **unhealthy** shard is simply skipped on the ring walk: its keys
      spill onto the next healthy shard, everything else stays put.

    Health is judged by :meth:`probe` — a shard whose task directory cannot
    be listed (unmounted volume, dead NFS server, deleted directory) is
    marked unhealthy, and re-marked healthy the moment a later probe
    succeeds.  Callers can also mark shards explicitly.  :meth:`recover_all`
    runs :meth:`WorkQueue.recover` across the healthy shards — the poll-path
    companion that requeues tasks leased by crashed workers.
    """

    def __init__(self, queues: Sequence[WorkQueue],
                 replicas: int = 64) -> None:
        if not queues:
            raise ValueError("ShardRouter needs at least one shard")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.queues: List[WorkQueue] = list(queues)
        self._healthy = [True] * len(self.queues)
        ring: List[Tuple[int, int]] = []
        for index in range(len(self.queues)):
            for replica in range(replicas):
                ring.append((_ring_point(f"shard-{index}:{replica}"), index))
        ring.sort()
        self._ring = ring

    def __len__(self) -> int:
        return len(self.queues)

    # ---------------------------------------------------------------- health
    def healthy_indices(self) -> List[int]:
        return [i for i, ok in enumerate(self._healthy) if ok]

    def is_healthy(self, index: int) -> bool:
        return self._healthy[index]

    def mark_unhealthy(self, index: int) -> None:
        self._healthy[index] = False

    def mark_healthy(self, index: int) -> None:
        self._healthy[index] = True

    def probe(self) -> List[bool]:
        """Re-judge every shard by listing its task directory.

        A failed listing marks the shard unhealthy; a successful one heals
        it — transient outages (NFS hiccup, remount) recover without
        operator action.  Returns the post-probe health vector.
        """
        for index, queue in enumerate(self.queues):
            try:
                queue.fs.listdir(os.path.join(queue.directory, TASKS_DIR))
            except OSError:
                self._healthy[index] = False
            else:
                self._healthy[index] = True
        return list(self._healthy)

    # --------------------------------------------------------------- routing
    def route(self, key: str) -> int:
        """The healthy shard index owning ``key`` on the ring.

        Walks the ring clockwise from the key's point and returns the first
        virtual point owned by a healthy shard, so an unhealthy shard's keys
        spill deterministically onto its ring successors.  Raises
        :class:`SpoolError` when every shard is unhealthy.
        """
        if not any(self._healthy):
            raise SpoolError("no healthy spool shard to route to")
        import bisect

        start = bisect.bisect_right(self._ring, (_ring_point(key),))
        for offset in range(len(self._ring)):
            _, index = self._ring[(start + offset) % len(self._ring)]
            if self._healthy[index]:
                return index
        raise SpoolError("no healthy spool shard to route to")

    def shard(self, key: str) -> WorkQueue:
        return self.queues[self.route(key)]

    # ------------------------------------------------------------- fleet ops
    def recover_all(self) -> int:
        """Requeue expired leases across every healthy shard."""
        moved = 0
        for index in self.healthy_indices():
            moved += self.queues[index].recover()
        return moved

    def find_task(self, task_id: str) -> Optional[int]:
        """The shard currently holding any artifact of ``task_id``, if any."""
        for index, queue in enumerate(self.queues):
            if not self._healthy[index]:
                continue
            if queue.task_live(task_id) or queue.failure(task_id) is not None:
                return index
        return None

    def counts(self) -> Dict[str, int]:
        """Aggregate occupancy across all shards (unhealthy ones included)."""
        totals: Dict[str, int] = {}
        for queue in self.queues:
            for state, value in queue.counts().items():
                totals[state] = totals.get(state, 0) + value
        return totals

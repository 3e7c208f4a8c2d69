"""Typed solve-lifecycle event log: crash-safe JSONL next to the spool.

Every fleet-visible state change — a task submitted, claimed, progressed,
acked, requeued, dead-lettered — appends one JSON line to
``<spool>/events.jsonl``.  The append is a **single ``os.write`` on an
``O_APPEND`` descriptor**, which POSIX makes atomic with respect to other
appenders and indivisible under ``SIGKILL``: a killed worker leaves at most
one truncated final line, never interleaved garbage.  The reader mirrors
that contract by accepting only newline-terminated lines that parse as JSON
objects and silently skipping anything else.

``repro audit`` replays this file (joined with spool result artifacts) into
per-task timelines; ``repro top`` tails it for incumbent sparklines.
A traced task's ``submit``/``claim``/``ack``/``requeue`` event also
carries span fields (``span_id``, ``parent_id``, ``start``, ``dur_s``,
``pid``): it is that transition's span.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["EventLog", "EVENTS_FILENAME"]

#: Name of the log file, created at the spool root next to ``tasks/`` etc.
EVENTS_FILENAME = "events.jsonl"

# Lifecycle event kinds, in rough temporal order for one task.
EVENT_SUBMIT = "submit"
EVENT_CLAIM = "claim"
EVENT_SOLVE_START = "solve_start"
EVENT_PROGRESS = "progress"
EVENT_CACHE_HIT = "cache_hit"
EVENT_SOLVE_END = "solve_end"
EVENT_ACK = "ack"
EVENT_FAIL = "fail"
EVENT_REQUEUE = "requeue"
EVENT_RELEASE = "release"
EVENT_DEAD_LETTER = "dead_letter"
EVENT_QUARANTINE = "quarantine"
EVENT_POISON = "poison"
# A finished tracing span other than a spool transition (task, solve,
# method:*; see repro.observability.tracing); rides the same crash-safe log
# so a SIGKILL'd worker loses at most its open spans.
EVENT_SPAN = "span"

#: Metric: one increment per finished span, labelled by span name.
SPANS_TOTAL = "repro_trace_spans_total"

KNOWN_KINDS = (
    EVENT_SUBMIT,
    EVENT_CLAIM,
    EVENT_SOLVE_START,
    EVENT_PROGRESS,
    EVENT_CACHE_HIT,
    EVENT_SOLVE_END,
    EVENT_ACK,
    EVENT_FAIL,
    EVENT_REQUEUE,
    EVENT_RELEASE,
    EVENT_DEAD_LETTER,
    EVENT_QUARANTINE,
    EVENT_POISON,
    EVENT_SPAN,
)


class EventLog:
    """Append-only JSONL event stream with torn-write-tolerant reads.

    ``fs`` routes the append through a
    :class:`~repro.runtime.fsio.FilesystemAdapter` so the chaos harness can
    inject EIO/torn faults into telemetry too; by default the append is a
    direct ``os.open``/``os.write`` with no indirection.
    """

    def __init__(self, path: str, fs=None) -> None:
        self.path = os.path.abspath(path)
        self.fs = fs

    @classmethod
    def for_spool(cls, directory: str, fs=None) -> "EventLog":
        return cls(os.path.join(directory, EVENTS_FILENAME), fs=fs)

    def emit(self, kind: str, task_id: Optional[str] = None, **fields: Any) -> None:
        """Append one event; never raises into the hot path."""
        event: Dict[str, Any] = {"ts": time.time(), "kind": kind}
        if task_id is not None:
            event["task_id"] = task_id
        event.update(fields)
        line = json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            if self.fs is not None:
                self.fs.append_line(self.path, line.encode("utf-8"))
                return
            fd = os.open(
                self.path,
                os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                0o644,
            )
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            # Telemetry must never take down a solve; drop the event.
            pass

    def read(self) -> List[Dict[str, Any]]:
        """Every complete, parseable event, in append order."""
        return list(self.iter_events())

    def iter_events(self) -> Iterator[Dict[str, Any]]:
        try:
            handle = open(self.path, "rb")
        except OSError:
            return
        with handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    # torn final write from a killed process
                    continue
                try:
                    event = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    continue
                if isinstance(event, dict) and "kind" in event:
                    yield event

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_events())

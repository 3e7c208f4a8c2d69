"""Distributed tracing and solver-internal profiling, zero-dependency.

A :class:`Tracer` mints :class:`Span` records — ``trace_id`` / ``span_id`` /
``parent_id`` triples with wall-clock anchors and monotonic durations — and
persists each *finished* span as one ``kind="span"`` line through the
existing SIGKILL-atomic :class:`~repro.observability.events.EventLog`.  A
killed worker therefore loses at most its still-open spans; everything
already finished survives, torn-line tolerant, next to the ordinary
lifecycle events it interleaves with.  A traced spool transition
(``submit``/``claim``/``ack``/``requeue``) is a span with no separate
``kind="span"`` line: its lifecycle event carries the span fields.

Trace context crosses process boundaries as a plain dict
(``{"trace_id", "span_id", "log"}``) carried inside the task payload: the
``log`` entry is the absolute path of the submitter's event log, so any
process — spool worker, batch pool child — can continue the trace by
appending to the same crash-safe file.  Sampling is **deterministic and
head-based**: whether a task is traced is decided once at submit time from
the canonical problem hash (:func:`sampled`), so re-running the same
instance set at the same rate traces the same instances.

The module also ships the read side: :func:`load_spans` /
:func:`group_traces` replay a spool's span records, :func:`chrome_trace`
exports Chrome trace-event JSON loadable by Perfetto or
``chrome://tracing``, :func:`render_waterfall` draws an ASCII waterfall and
:func:`render_profile` a bound-effectiveness table for the exact engines
(which completion bound — the sigma/colour-load floor, the per-colour
joint bound, the Lagrangian w-bound or the meet-join pre-filter —
actually killed labels).  The profile a span carries is the engine's own
``details["profile"]`` — one record per engine run, set on the traced
``method:*`` span (or, in the portfolio, the ``stage:*`` span) once the
engine returns, so the engines' hot loops hold no tracing code.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.observability.events import EVENT_SPAN, SPANS_TOTAL, EventLog
from repro.observability.metrics import MetricsRegistry, default_metrics

__all__ = [
    "Span",
    "Tracer",
    "chrome_trace",
    "group_traces",
    "load_spans",
    "render_profile",
    "render_waterfall",
    "sampled",
    "trace_context",
]

# Denominator for head-based sampling: the first 8 hex digits of the
# canonical problem hash, read as a 32-bit integer.
_SAMPLE_BUCKETS = float(1 << 32)


def sampled(problem_hash: str, rate: float) -> bool:
    """Deterministic head-based sampling decision for one problem.

    Keyed on the canonical problem fingerprint, so the same instance is
    either always or never traced at a given rate — across submitters,
    re-runs and spool shards alike.
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    try:
        bucket = int(problem_hash[:8], 16)
    except (TypeError, ValueError):
        return False
    return bucket / _SAMPLE_BUCKETS < rate


def trace_context(span: Optional["Span"]) -> Optional[Dict[str, str]]:
    """Payload-embeddable trace context for ``span`` (None when untraced)."""
    if span is None:
        return None
    return span.context()


class Span:
    """One timed operation inside a trace.

    Wall-clock ``start`` anchors the span on the shared epoch axis (so
    spans from different processes line up in a waterfall); the duration is
    measured with ``time.perf_counter`` so clock steps cannot produce
    negative or inflated spans.  ``finish`` is idempotent and writes the
    record through the tracer's event log.
    """

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "task_id",
        "start",
        "_perf0",
        "attrs",
        "events",
        "profile",
        "_finished",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str] = None,
        task_id: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.task_id = task_id
        self.start = time.time()
        self._perf0 = time.perf_counter()
        self.attrs: Dict[str, Any] = dict(attrs)
        self.events: List[Dict[str, Any]] = []
        #: the engine's ``details["profile"]``, written as the record's
        #: top-level ``profile`` field
        self.profile: Optional[Dict[str, Any]] = None
        self._finished = False

    # ------------------------------------------------------------- plumbing
    def context(self) -> Dict[str, str]:
        """Cross-process continuation context (carried in task payloads)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "log": self.tracer.log_path,
        }

    def child(self, name: str, **attrs: Any) -> "Span":
        return self.tracer.start(
            name,
            trace_id=self.trace_id,
            parent_id=self.span_id,
            task_id=self.task_id,
            **attrs,
        )

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def add_event(self, name: str, **attrs: Any) -> None:
        event: Dict[str, Any] = {
            "name": name,
            "at": self.start + (time.perf_counter() - self._perf0),
        }
        if attrs:
            event.update(attrs)
        self.events.append(event)

    def finish(self, **attrs: Any) -> None:
        if self._finished:
            return
        self._finished = True
        if attrs:
            self.attrs.update(attrs)
        self.tracer._record(self, time.perf_counter() - self._perf0)

    # ------------------------------------------------------- context manager
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.finish()


class Tracer:
    """Mints spans and persists them through a crash-safe event log.

    A tracer is enabled iff it has a log; :meth:`start` on a disabled
    tracer raises, but the convenience constructors (:meth:`root`,
    :meth:`resume`) return ``None`` instead so call sites stay a single
    ``if span is not None`` on the untraced path.
    """

    __slots__ = ("log", "sample_rate", "registry")

    def __init__(
        self,
        log: Optional[EventLog] = None,
        sample_rate: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.log = log
        self.sample_rate = sample_rate
        self.registry = registry

    # ------------------------------------------------------------ factories
    @classmethod
    def for_spool(
        cls,
        directory: str,
        sample_rate: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> "Tracer":
        return cls(
            EventLog.for_spool(directory), sample_rate=sample_rate, registry=registry
        )

    @classmethod
    def from_context(
        cls, context: Mapping[str, Any], registry: Optional[MetricsRegistry] = None
    ) -> Optional["Tracer"]:
        """Tracer continuing a payload-carried trace (None if malformed)."""
        log_path = context.get("log") if isinstance(context, Mapping) else None
        if not log_path or not context.get("trace_id"):
            return None
        return cls(EventLog(str(log_path)), registry=registry)

    # ------------------------------------------------------------ decisions
    @property
    def enabled(self) -> bool:
        return self.log is not None

    @property
    def log_path(self) -> str:
        return self.log.path if self.log is not None else ""

    def sampled(self, problem_hash: str) -> bool:
        return self.enabled and sampled(problem_hash, self.sample_rate)

    # ----------------------------------------------------------------- mint
    def start(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        task_id: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        if self.log is None:
            raise RuntimeError("cannot start a span on a disabled tracer")
        return Span(
            self,
            name,
            trace_id=trace_id or os.urandom(8).hex(),
            span_id=os.urandom(4).hex(),
            parent_id=parent_id,
            task_id=task_id,
            **attrs,
        )

    def root(
        self, name: str, problem_hash: Optional[str] = None, **kwargs: Any
    ) -> Optional[Span]:
        """New trace root, or ``None`` when disabled / sampled out."""
        if not self.enabled:
            return None
        if problem_hash is not None and not sampled(problem_hash, self.sample_rate):
            return None
        return self.start(name, **kwargs)

    def resume(
        self,
        context: Optional[Mapping[str, Any]],
        name: str,
        task_id: Optional[str] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Continue a payload-carried trace context (None when untraced)."""
        if not self.enabled or not isinstance(context, Mapping):
            return None
        trace_id = context.get("trace_id")
        if not trace_id:
            return None
        return self.start(
            name,
            trace_id=str(trace_id),
            parent_id=context.get("span_id"),
            task_id=task_id,
            **attrs,
        )

    # -------------------------------------------------------------- persist
    def _record(self, span: Span, duration: float) -> None:
        if self.log is None:
            return
        fields: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "name": span.name,
            "start": span.start,
            "dur_s": round(duration, 9),
            "pid": os.getpid(),
        }
        if span.parent_id:
            fields["parent_id"] = span.parent_id
        if span.attrs:
            fields["attrs"] = span.attrs
        if span.events:
            fields["events"] = span.events
        if span.profile is not None:
            fields["profile"] = span.profile
        self.log.emit(EVENT_SPAN, task_id=span.task_id, **fields)
        registry = self.registry if self.registry is not None else default_metrics()
        try:
            registry.counter(
                SPANS_TOTAL, "Finished tracing spans by span name"
            ).inc(kind=span.name)
        except ValueError:
            pass


# ---------------------------------------------------------------- read side
#: Fields of a traced transition event that belong to its span; the others
#: (``attempt``, ``status``, ``method``, ...) are the span's attributes.
_SPAN_KEYS = frozenset("ts task_id trace_id span_id parent_id start dur_s pid".split())


def _as_span(event: Dict[str, Any]) -> Dict[str, Any]:
    """A span record as is; a traced transition event in span shape."""
    if event["kind"] == EVENT_SPAN:
        return event
    span: Dict[str, Any] = {"name": event["kind"], "attrs": {}}
    for key, value in event.items():
        if key in _SPAN_KEYS:
            span[key] = value
        elif key != "kind":
            span["attrs"][key] = value
    return span


def load_spans(source: Any) -> List[Dict[str, Any]]:
    """Span records from an :class:`EventLog`, events file, or spool dir.

    Every record with a ``trace_id`` and a ``span_id`` is a span: a
    ``kind="span"`` line, or a traced spool transition named by its kind.
    """
    if isinstance(source, EventLog):
        log = source
    else:
        path = str(source)
        log = EventLog.for_spool(path) if os.path.isdir(path) else EventLog(path)
    spans = [
        _as_span(event)
        for event in log.iter_events()
        if event.get("trace_id") and event.get("span_id")
    ]
    spans.sort(key=lambda record: record.get("start", 0.0))
    return spans


def group_traces(spans: Iterable[Mapping[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    """Spans grouped by ``trace_id``, each group sorted by start time."""
    traces: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        traces.setdefault(str(span.get("trace_id")), []).append(dict(span))
    for group in traces.values():
        group.sort(key=lambda record: record.get("start", 0.0))
    return traces


def chrome_trace(spans: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Chrome trace-event JSON (Perfetto / ``chrome://tracing`` loadable).

    Spans become complete (``ph="X"``) events on a per-pid track; span
    events become instant (``ph="i"``) marks; each pid gets a
    ``process_name`` metadata record so the Perfetto track picker reads
    ``repro pid <n>`` instead of bare numbers.
    """
    trace_events: List[Dict[str, Any]] = []
    pids_seen: Dict[int, bool] = {}
    for span in spans:
        pid = int(span.get("pid", 0))
        if pid not in pids_seen:
            pids_seen[pid] = True
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": pid,
                    "args": {"name": f"repro pid {pid}"},
                }
            )
        start_us = float(span.get("start", 0.0)) * 1e6
        args: Dict[str, Any] = {
            "trace_id": span.get("trace_id"),
            "span_id": span.get("span_id"),
        }
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        if span.get("task_id"):
            args["task_id"] = span["task_id"]
        for key, value in (span.get("attrs") or {}).items():
            args[key] = value
        profile = span.get("profile")
        if isinstance(profile, Mapping):
            args["profile"] = dict(profile)
        trace_events.append(
            {
                "name": str(span.get("name", "span")),
                "cat": "repro",
                "ph": "X",
                "ts": start_us,
                "dur": max(0.0, float(span.get("dur_s", 0.0)) * 1e6),
                "pid": pid,
                "tid": pid,
                "args": args,
            }
        )
        for event in span.get("events") or ():
            trace_events.append(
                {
                    "name": str(event.get("name", "event")),
                    "cat": "repro",
                    "ph": "i",
                    "s": "p",
                    "ts": float(event.get("at", span.get("start", 0.0))) * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": {
                        key: value
                        for key, value in event.items()
                        if key not in ("name", "at")
                    },
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Mapping[str, Any]], path: str) -> str:
    payload = chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def _span_depths(spans: List[Mapping[str, Any]]) -> Dict[str, int]:
    by_id = {str(span.get("span_id")): span for span in spans}
    depths: Dict[str, int] = {}

    def depth(span_id: str) -> int:
        if span_id in depths:
            return depths[span_id]
        span = by_id.get(span_id)
        parent = str(span.get("parent_id") or "") if span else ""
        depths[span_id] = 1 + depth(parent) if parent in by_id else 0
        return depths[span_id]

    for span in spans:
        depth(str(span.get("span_id")))
    return depths


def render_waterfall(spans: List[Mapping[str, Any]], width: int = 40) -> str:
    """ASCII waterfall for one trace's spans (pass one group_traces value)."""
    if not spans:
        return "(no spans)"
    t0 = min(float(span.get("start", 0.0)) for span in spans)
    t1 = max(
        float(span.get("start", 0.0)) + float(span.get("dur_s", 0.0)) for span in spans
    )
    window = max(t1 - t0, 1e-9)
    depths = _span_depths(spans)
    trace_id = spans[0].get("trace_id", "?")
    task_ids = sorted(
        {str(span["task_id"]) for span in spans if span.get("task_id")}
    )
    header = f"trace {trace_id} · {window:.3f}s window"
    if task_ids:
        header += f" · task {', '.join(task_ids)}"
    lines = [header]
    name_width = max(
        len("  " * depths.get(str(span.get("span_id")), 0) + str(span.get("name", "")))
        for span in spans
    )
    for span in spans:
        start = float(span.get("start", 0.0)) - t0
        dur = float(span.get("dur_s", 0.0))
        lead = min(width - 1, int(round(start / window * width)))
        body = max(1, int(round(dur / window * width)))
        body = min(body, width - lead)
        bar = " " * lead + "#" * body + " " * (width - lead - body)
        indent = "  " * depths.get(str(span.get("span_id")), 0)
        label = f"{indent}{span.get('name', '')}"
        pid = span.get("pid", "?")
        lines.append(
            f"  {label:<{name_width}}  |{bar}|  "
            f"+{start * 1e3:8.2f}ms  {dur * 1e3:8.2f}ms  pid {pid}"
        )
        for event in span.get("events") or ():
            at = float(event.get("at", 0.0)) - t0
            mark = min(width - 1, max(0, int(round(at / window * width))))
            tick = " " * mark + "^" + " " * (width - mark - 1)
            lines.append(
                f"  {'':<{name_width}}  |{tick}|  "
                f"+{at * 1e3:8.2f}ms  · {event.get('name', 'event')}"
            )
    return "\n".join(lines)


#: Human labels for the completion-bound rejection counters.
_BOUND_ROWS = (
    ("pruned_floor", "sigma + colour-load floor bound"),
    ("pruned_colour", "per-colour joint sigma/load bound"),
    ("pruned_lagrange", "Lagrangian w-weighted load bound"),
    ("pruned_meet", "meet-in-the-middle join pre-filter"),
)


def render_profile(profile: Mapping[str, Any], title: str = "") -> str:
    """Bound-effectiveness table for one solve's pruning profile."""
    lines = []
    engine = profile.get("engine") or "label engine"
    heading = title or f"bound-effectiveness profile ({engine})"
    lines.append(heading)
    created = int(profile.get("labels_created", 0) or 0)
    lines.append(f"  labels created            {created:>12,}")
    lines.append(
        f"  dominance-retired         "
        f"{int(profile.get('labels_dominated', 0) or 0):>12,}"
    )
    pruned_total = int(profile.get("pruned_total", 0) or 0)
    denominator = max(1, pruned_total)
    for key, label in _BOUND_ROWS:
        count = int(profile.get(key, 0) or 0)
        share = 100.0 * count / denominator
        lines.append(f"  rejected: {label:<36} {count:>12,}  ({share:5.1f}%)")
    lines.append(f"  rejected total            {pruned_total:>12,}")
    lines.append(
        f"  frontier peak             "
        f"{int(profile.get('frontier_peak', 0) or 0):>12,}"
    )
    lines.append(
        f"  settle batches            "
        f"{int(profile.get('settle_batches', 0) or 0):>12,}"
    )
    lines.append(
        f"  nodes swept               "
        f"{int(profile.get('nodes_swept', 0) or 0):>12,}"
    )
    if profile.get("beam_labels_created") is not None:
        lines.append(
            f"  beam pre-pass             "
            f"{int(profile['beam_labels_created']):>12,} created"
        )
    if profile.get("lagrange_root") is not None:
        lines.append(
            f"  Lagrangian root bound     {float(profile['lagrange_root']):>12.6g}"
        )
    if profile.get("exact_passes") is not None:
        lines.append(f"  exact passes              {int(profile['exact_passes']):>12,}")
    if profile.get("beam_certified"):
        lines.append("  exact pass skipped: the beam certified its incumbent")
    return "\n".join(lines)

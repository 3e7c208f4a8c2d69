"""Fleet observability: metrics registry, event log, live top, post-hoc audit.

The package is stdlib-only and import-light on purpose — ``metrics`` and
``events`` are imported by every hot layer (spool, worker, runner, cache,
janitor), while the heavier ``top``/``audit`` renderers are only pulled in
by their CLI commands.
"""

from repro.observability.events import EVENTS_FILENAME, EventLog
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_metrics,
    parse_prometheus_text,
)
from repro.observability.tracing import (
    Span,
    Tracer,
    chrome_trace,
    group_traces,
    load_spans,
)

__all__ = [
    "Counter",
    "EVENTS_FILENAME",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "chrome_trace",
    "default_metrics",
    "group_traces",
    "load_spans",
    "parse_prometheus_text",
]

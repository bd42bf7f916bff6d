"""``repro.obs`` — observability for the optimizer stack.

A zero-overhead-when-off tracing and metrics subsystem (see
``docs/observability.md``):

* :mod:`repro.obs.tracer` — the :class:`Tracer` protocol and its
  concrete implementations; the search engine, memo, and plan cache
  emit structured events through it.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, and monotonic-timer histograms, plus bridges from
  ``SearchStats`` and collected traces.
* :mod:`repro.obs.export` — JSON-lines and Chrome ``chrome://tracing``
  exporters (merged batch traces render one ``pid`` lane per worker).

The EXPLAIN ANALYZE view over a collected trace lives with the other
plan renderers: :func:`repro.volcano.explain.explain_trace`.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.export import read_jsonl, write_chrome_trace, write_jsonl
from repro.obs.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    CollectingTracer,
    CountingTracer,
    JsonLinesTracer,
    NullTracer,
    TraceEvent,
    Tracer,
    WorkerTracer,
    event_dicts,
    span,
)

__all__ = [
    "CollectingTracer",
    "Counter",
    "CountingTracer",
    "Gauge",
    "Histogram",
    "JsonLinesTracer",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "WorkerTracer",
    "event_dicts",
    "read_jsonl",
    "span",
    "write_chrome_trace",
    "write_jsonl",
]

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

from repro._lazy import lazy_exports

_EXPORTS = {
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "read_jsonl": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "NULL_SPAN": "repro.obs.tracer",
    "NULL_TRACER": "repro.obs.tracer",
    "CollectingTracer": "repro.obs.tracer",
    "CountingTracer": "repro.obs.tracer",
    "JsonLinesTracer": "repro.obs.tracer",
    "NullTracer": "repro.obs.tracer",
    "TraceEvent": "repro.obs.tracer",
    "Tracer": "repro.obs.tracer",
    "WorkerTracer": "repro.obs.tracer",
    "event_dicts": "repro.obs.tracer",
    "span": "repro.obs.tracer",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)

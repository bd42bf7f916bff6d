"""Structured tracing for the optimizer stack.

The search engine, memo, and plan cache emit *events* — small, flat
records such as ``trans_fired`` or ``winner_filed`` — through a
:class:`Tracer`.  The default is no tracer at all: every emit site in
the hot path is guarded by an ``is not None`` check on a pre-resolved
bound method, so a tracerless optimization executes the exact same
instructions as before the observability layer existed (every
``optbench`` workload measures this untraced path, and the property
tests in ``tests/test_obs.py`` assert bit-identical plans, costs, and
statistics either way).

Three concrete tracers cover the common shapes:

* :class:`CollectingTracer` — buffers :class:`TraceEvent` objects in
  memory; the input to :func:`repro.volcano.explain.explain_trace` and
  :meth:`repro.obs.metrics.MetricsRegistry.count_trace`.
* :class:`CountingTracer` — keeps only per-type counts; cheap enough
  for overhead benchmarking of arbitrarily large searches.
* :class:`JsonLinesTracer` — streams each event as one JSON object per
  line (the ``prairie-opt optimize --trace FILE`` format; see
  ``docs/observability.md`` for the event schema).

Every event carries a ``ts`` — seconds since the tracer was created,
measured on the monotonic clock — and event-specific fields in
``data``.  Rule events additionally carry a ``provenance`` id minted at
P2V translation time (:func:`repro.prairie.compile.mint_provenance`),
mapping each Volcano firing back to its source Prairie T-/I-rule.

Two structuring layers sit on top of flat events:

* :func:`span` — a begin/end pair (``span_begin`` / ``span_end`` with
  an ``elapsed_s``) bracketing a named phase: P2V translation stages,
  plan-cache probes/inserts, per-query optimizations.  The Chrome
  exporter renders pairs as nested duration slices; ``explain_trace``
  sums them into a phase-timing footer.  ``span(None, ...)`` is a
  shared no-op object, so un-traced code pays one truthiness check.
* :class:`WorkerTracer` — the tracer one batch worker runs
  (:mod:`repro.parallel.worker`): every event is tagged with a
  ``worker`` id and the current per-query ``span`` id, and timestamps
  are measured against a *caller-supplied* epoch — the parent records
  ``time.perf_counter()`` when the batch starts and ships it to every
  worker, so events from many processes merge onto one timeline
  (``perf_counter`` reads the system-wide monotonic clock, which all
  processes on a host share).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, TextIO


@dataclass(slots=True)
class TraceEvent:
    """One structured trace event."""

    type: str
    ts: float
    data: dict

    def as_dict(self) -> dict[str, Any]:
        return {"type": self.type, "ts": self.ts, **self.data}

    def __str__(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in self.data.items())
        return f"[{self.ts * 1000:9.3f}ms] {self.type} {fields}".rstrip()


class Tracer:
    """Base tracer: subclasses override :meth:`emit`.

    ``enabled`` lets the engine skip all event construction for
    :class:`NullTracer` without type checks; anything with
    ``enabled=True`` receives every event.
    """

    enabled: bool = True

    def emit(self, type: str, **data: Any) -> None:  # noqa: A002
        raise NotImplementedError

    def span(self, name: str, **data: Any) -> "_Span | _NullSpan":
        """``with tracer.span("phase"):`` — see :func:`span`."""
        return span(self, name, **data)


class _Span:
    """A live begin/end span: emits the pair around the ``with`` body."""

    __slots__ = ("_tracer", "_name", "_data", "_started")

    def __init__(self, tracer: Tracer, name: str, data: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._data = data
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._tracer.emit("span_begin", name=self._name, **self._data)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.emit(
            "span_end",
            name=self._name,
            elapsed_s=time.perf_counter() - self._started,
            **self._data,
        )


class _NullSpan:
    """The shared do-nothing span handed out when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NULL_SPAN = _NullSpan()


def span(tracer: "Tracer | None", name: str, **data: Any):
    """A context manager emitting ``span_begin``/``span_end`` around its
    body, with the elapsed monotonic seconds on the end event.

    ``tracer`` may be ``None`` or a disabled tracer, in which case the
    shared :data:`NULL_SPAN` is returned and nothing is emitted — callers
    sprinkle spans through cold paths (P2V translation, cache snapshots)
    without guarding every site themselves.  Hot paths should keep the
    explicit ``if emit is not None`` discipline instead (see
    ``docs/observability.md``).
    """
    if tracer is None or not tracer.enabled:
        return NULL_SPAN
    return _Span(tracer, name, data)


class NullTracer(Tracer):
    """The default: accepts nothing, costs nothing."""

    enabled = False

    def emit(self, type: str, **data: Any) -> None:  # noqa: A002
        return None


NULL_TRACER = NullTracer()


class CollectingTracer(Tracer):
    """Buffers every event in memory (``tracer.events``).

    Thread-safe: a lock guards the buffer, so concurrent emitters can
    share one tracer without interleaving corruption.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()

    @property
    def epoch(self) -> float:
        """The ``time.perf_counter()`` reading timestamps measure from."""
        return self._epoch

    def emit(self, type: str, **data: Any) -> None:  # noqa: A002
        event = TraceEvent(type, time.perf_counter() - self._epoch, data)
        with self._lock:
            self.events.append(event)

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
            self._epoch = time.perf_counter()

    def drain(self) -> list[dict[str, Any]]:
        """Return the buffered events as dicts and empty the buffer.

        Unlike :meth:`clear`, the epoch is preserved: a long-lived
        worker tracer keeps stamping later events on the same timeline
        after each chunk of events is shipped back to the parent.
        """
        with self._lock:
            events, self.events = self.events, []
        return [event.as_dict() for event in events]

    def as_dicts(self) -> list[dict[str, Any]]:
        with self._lock:
            return [event.as_dict() for event in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class CountingTracer(Tracer):
    """Counts events per type, discarding payloads.

    Constant memory regardless of search size — the tracer the overhead
    benchmark drives, and a quick way to answer "how many times did X
    happen" without buffering a whole trace.  Increments are locked:
    ``dict.get`` + store is not atomic, so concurrent emitters would
    otherwise lose counts.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def emit(self, type: str, **data: Any) -> None:  # noqa: A002
        with self._lock:
            self.counts[type] = self.counts.get(type, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class WorkerTracer(CollectingTracer):
    """The tracer one batch worker runs: tagged, epoch-aligned events.

    Every emitted event is tagged with this worker's ``worker`` id (by
    convention the process id) and, while a :meth:`query_span` is open,
    the per-query ``span`` id — the two fields the Chrome exporter uses
    to lay a merged batch trace out as one ``pid`` lane per worker with
    one duration slice per optimized query.

    ``epoch`` is the parent's ``time.perf_counter()`` reading at batch
    start: every worker measures against it, so event timestamps from
    different processes land on one shared timeline (``perf_counter``
    is the system-wide monotonic clock).  The active span id is
    thread-local, so concurrent emitters on several threads don't
    cross-tag each other's queries.
    """

    def __init__(
        self, worker_id: int, epoch: "float | None" = None
    ) -> None:
        super().__init__()
        if epoch is not None:
            self._epoch = epoch
        self.worker_id = worker_id
        self._span_ids = 0
        self._active = threading.local()

    def emit(self, type: str, **data: Any) -> None:  # noqa: A002
        if "worker" not in data:
            data["worker"] = self.worker_id
        span_id = getattr(self._active, "span", None)
        if span_id is not None and "span" not in data:
            data["span"] = span_id
        super().emit(type, **data)

    def query_span(self, label: str, index: "int | None" = None):
        """A span bracketing one query's optimization.

        Opens a fresh per-query span id; every event emitted inside the
        ``with`` body (by this thread) carries it, letting offline tools
        slice a worker's event stream back into per-query runs.
        """
        return _QuerySpan(self, label, index)


class _QuerySpan:
    """Span context for :meth:`WorkerTracer.query_span`."""

    __slots__ = ("_tracer", "_label", "_index", "_started", "_span_id")

    def __init__(
        self, tracer: WorkerTracer, label: str, index: "int | None"
    ) -> None:
        self._tracer = tracer
        self._label = label
        self._index = index
        self._started = 0.0
        self._span_id = 0

    def __enter__(self) -> "_QuerySpan":
        tracer = self._tracer
        with tracer._lock:
            tracer._span_ids += 1
            self._span_id = tracer._span_ids
        tracer._active.span = self._span_id
        data = {"name": "optimize_query", "label": self._label}
        if self._index is not None:
            data["index"] = self._index
        tracer.emit("span_begin", **data)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        data = {
            "name": "optimize_query",
            "label": self._label,
            "elapsed_s": time.perf_counter() - self._started,
        }
        if self._index is not None:
            data["index"] = self._index
        tracer.emit("span_end", **data)
        tracer._active.span = None


class JsonLinesTracer(Tracer):
    """Streams events to a text handle, one JSON object per line.

    The handle is owned by the caller unless :meth:`open` created it
    (then :meth:`close` closes it).  Values that JSON cannot encode
    (e.g. predicate objects) are stringified rather than rejected.
    """

    def __init__(self, handle: TextIO) -> None:
        self._handle = handle
        self._owns_handle = False
        self._epoch = time.perf_counter()
        self.emitted = 0

    @classmethod
    def open(cls, path: str) -> "JsonLinesTracer":
        tracer = cls(open(path, "w", encoding="utf-8"))
        tracer._owns_handle = True
        return tracer

    def emit(self, type: str, **data: Any) -> None:  # noqa: A002
        record = {"type": type, "ts": time.perf_counter() - self._epoch}
        record.update(data)
        self._handle.write(json.dumps(record, default=str) + "\n")
        self.emitted += 1

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()


def event_dicts(events: "Iterable[TraceEvent | dict]") -> "list[dict]":
    """Normalize a trace to plain dicts.

    Accepts :class:`TraceEvent` objects (from a
    :class:`CollectingTracer`), already-plain dicts (e.g. re-read from a
    JSON-lines file), or a :class:`CollectingTracer` itself.
    """
    out: list[dict] = []
    for event in events:
        out.append(event.as_dict() if isinstance(event, TraceEvent) else dict(event))
    return out

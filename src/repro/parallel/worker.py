"""Long-lived process worker of the batch optimizer.

Rule sets cannot cross process boundaries: P2V-generated rule sets hold
compiled code objects and closures, which do not pickle.  Workers
therefore rebuild their rule set from a **factory spec** — a
``"module:attr"`` string naming either a rule-set object or a callable
returning one (called with the spec's ``args``).  Both sides agree on
the spec, which doubles as the rule-set *tag* in portable plan-cache
keys (:meth:`repro.volcano.plancache.PlanCache.snapshot`).

A process-mode :class:`~repro.parallel.batch.BatchOptimizer` starts one
worker process per stripe on its first ``run()`` and keeps them until
``close()``.  Each runs :func:`serve`: it builds exactly one
:class:`WorkerState` — the rebuilt rule set plus a warm
:class:`~repro.volcano.plancache.PlanCache` — for its whole lifetime
(:func:`init_worker`), then answers chunk requests on its pipe with
:func:`optimize_chunk` until the parent says stop.

Cache traffic is a delta in both directions.  A chunk carries only the
parent cache entries this worker does not hold yet (the parent tracks,
per worker, the keys it shipped and received).  The reply carries only
the entries under keys the worker did not hold once that delta was
merged — every key it held, the parent shipped to it or got back from
it — and the parent merges them.  A chunk flagged ``reset`` (the
parent's cache was
:meth:`~repro.volcano.plancache.PlanCache.invalidate`\\ d since this
worker's last chunk) first clears the worker's cache.

Everything that crosses the boundary is plain pickled data: trees,
catalogs, plans, :class:`~repro.volcano.search.SearchStats`, cache
snapshots, exceptions — and, when the batch runs traced, the chunk's
events: the chunk carries the batch's trace epoch, the worker runs a
:class:`~repro.obs.tracer.WorkerTracer` aligned to it for that chunk,
and the reply carries the drained events, so the parent can merge all
workers onto the batch's timeline
(:attr:`repro.parallel.batch.BatchReport.trace`).
"""

from __future__ import annotations

import importlib
import os
import pickle
import traceback
from dataclasses import dataclass
from typing import Any

from repro.obs.tracer import WorkerTracer
from repro.volcano.plancache import DEFAULT_MAX_ENTRIES, PlanCache
from repro.volcano.search import SearchOptions, VolcanoOptimizer

#: How often (seconds) an idle worker checks that its parent still
#: lives; an orphaned worker exits instead of waiting forever.
PARENT_CHECK_S = 1.0

#: ``PlanCache.stats()`` counters reported per chunk rather than
#: cumulatively (``entries`` stays the current size).
CHUNK_COUNTERS = ("hits", "misses", "invalidations", "evictions", "merged_in")


def resolve_factory(spec: str, args: tuple = ()) -> Any:
    """Resolve a ``"module:attr"`` rule-set factory spec.

    ``attr`` may be a rule-set object (returned as-is) or a callable
    (invoked with ``args``).  Raises ``ValueError`` for a malformed
    spec; import/attribute errors propagate untouched — a worker that
    cannot build its rule set must fail loudly, not optimize with the
    wrong one.
    """
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(
            f"rule-set factory spec must be 'module:attr', got {spec!r}"
        )
    obj = getattr(importlib.import_module(module_name), attr)
    if callable(obj):
        return obj(*args)
    return obj


@dataclass
class WorkerState:
    """Per-process state: the rebuilt rule set and the warm cache."""

    ruleset: Any
    options: SearchOptions
    cache: PlanCache
    tag: str


def init_worker(
    spec: str,
    factory_args: tuple,
    options: SearchOptions,
    cache_max_entries: int = DEFAULT_MAX_ENTRIES,
) -> WorkerState:
    """Build a worker's rule set and plan cache (once per worker)."""
    return WorkerState(
        ruleset=resolve_factory(spec, factory_args),
        options=options,
        cache=PlanCache(cache_max_entries),
        tag=spec,
    )


def optimize_chunk(state: WorkerState, payload: tuple) -> tuple:
    """Optimize one chunk of batch items in the worker owning ``state``.

    ``payload`` is ``(items, delta, reset, trace_epoch)``: ``items`` a
    list of ``(index, label, tree, catalog, required)`` tuples,
    ``delta`` a :class:`~repro.volcano.plancache.CacheSnapshot` of the
    parent entries this worker lacks, ``reset`` whether to clear the
    cache first, and ``trace_epoch`` the batch's trace epoch (``None``
    when untraced).  Returns ``(results, fresh, cache_stats, events)``:
    ``results`` a list of ``(index, plan, cost, stats)`` in chunk
    order, ``fresh`` a snapshot of the entries under keys the worker
    did not hold once ``delta`` was merged (the ones this chunk's
    searches stored), ``cache_stats`` the cache's
    :meth:`~PlanCache.stats` with every counter in
    :data:`CHUNK_COUNTERS` counted over this chunk only, and ``events``
    the chunk's drained trace events (or ``None``).

    A fresh :class:`VolcanoOptimizer` is built per item (they are cheap;
    catalogs differ per item), all sharing the worker's plan cache — the
    same structure serial mode uses, which is what makes results
    bit-identical across modes.  When tracing, each item's search runs
    inside a :meth:`~repro.obs.tracer.WorkerTracer.query_span`, so every
    optimized query shows as one labelled span in the merged timeline.
    """
    items, delta, reset, trace_epoch = payload
    cache = state.cache
    tracer = None
    if trace_epoch is not None:
        tracer = WorkerTracer(worker_id=os.getpid(), epoch=trace_epoch)
    emit = tracer.emit if tracer is not None else None
    if reset:
        cache.invalidate()
    before = cache.stats()
    cache.merge_snapshot(delta, state.ruleset, emit=emit)
    held = cache.snapshot(state.ruleset, state.tag).keys()
    results = []
    for index, label, tree, catalog, required in items:
        optimizer = VolcanoOptimizer(
            state.ruleset,
            catalog,
            options=state.options,
            plan_cache=cache,
            tracer=tracer,
        )
        if tracer is not None:
            with tracer.query_span(label, index=index):
                result = optimizer.optimize(tree, required)
        else:
            result = optimizer.optimize(tree, required)
        results.append((index, result.plan, result.cost, result.stats))
    fresh = cache.snapshot(state.ruleset, state.tag, held, emit=emit)
    cache_stats = cache.stats()
    for name in CHUNK_COUNTERS:
        cache_stats[name] -= before[name]
    events = tracer.drain() if tracer is not None else None
    return results, fresh, cache_stats, events


def _error_reply(exc: BaseException) -> bytes:
    """Pickle ``(exc, traceback_text)``; an exception that does not
    survive a pickle round trip travels as a ``RuntimeError`` naming it."""
    text = "".join(traceback.format_exception(exc))
    try:
        data = pickle.dumps((exc, text))
        pickle.loads(data)
    except Exception:
        data = pickle.dumps(
            (RuntimeError(f"{type(exc).__name__}: {exc}"), text)
        )
    return data


def serve(
    conn: Any,
    spec: str,
    factory_args: tuple,
    options: SearchOptions,
    cache_max_entries: int = DEFAULT_MAX_ENTRIES,
) -> None:
    """A worker process's main loop.

    Reads pickled chunk payloads from ``conn`` and answers each with a
    pickled ``(None, reply)`` (see :func:`optimize_chunk`) or, when the
    chunk raised, ``(exception, traceback_text)`` — the worker stays up
    either way.  Returns on a ``None`` payload, on end of file, or when
    its parent process is gone.
    """
    state = init_worker(spec, factory_args, options, cache_max_entries)
    parent = os.getppid()
    while True:
        if not conn.poll(PARENT_CHECK_S):
            if os.getppid() != parent:
                return
            continue
        try:
            payload = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        if payload is None:
            return
        try:
            reply = pickle.dumps((None, optimize_chunk(state, payload)))
        except Exception as exc:  # reported to the parent, which re-raises it
            reply = _error_reply(exc)
        conn.send_bytes(reply)

"""Parallel batch optimization: fan a batch of queries over workers.

The ROADMAP's north star is optimizer *throughput* — a service
optimizing many queries, not one.  :class:`BatchOptimizer` takes a batch
of :class:`BatchItem` (tree + catalog + required properties) and
optimizes them in one of three modes:

* ``"serial"`` — one by one in the calling thread.  The baseline every
  other mode must match bit-for-bit, and the determinism oracle the
  property tests compare against.
* ``"thread"`` — a ``ThreadPoolExecutor`` sharing one (thread-safe)
  :class:`~repro.volcano.plancache.PlanCache`.  Python's GIL caps the
  speed-up for this CPU-bound search, but the mode exercises the exact
  concurrency surface (shared cache, per-item optimizers) with cheap
  failure modes, so it is the determinism-under-concurrency test bed.
* ``"process"`` — long-lived worker processes, one per stripe, started
  on the first ``run()`` and kept until :meth:`BatchOptimizer.close`
  (or until the optimizer is garbage-collected).  Stripe *i* always
  goes to worker *i* over its own pipe.  Workers rebuild the rule set
  once from a factory spec (rule sets do not pickle — see
  :mod:`repro.parallel.worker`) and keep a warm plan cache across
  batches.  Cache traffic is a delta: the parent remembers which
  portable keys each worker holds (shipped to it or received from it),
  sends each chunk only the parent entries that worker lacks, and
  merges back only the entries the worker stored while running the
  chunk.  A parent-side :meth:`~repro.volcano.plancache.PlanCache.invalidate`
  makes every worker clear its cache before its next chunk.  A worker
  that died is replaced on the next ``run()``; an exception raised in a
  worker re-raises from ``run()`` with its own type.

Whatever the mode or worker count, results are **bit-identical** to
serial optimization: the search is deterministic, plan-cache hits
return copies of deterministically-found plans, and results are
reassembled in input order.

Batches can run **traced** (``BatchOptimizer(..., trace=True)``): the
parent and every worker run :class:`~repro.obs.tracer.WorkerTracer`
instances on the batch's monotonic-clock epoch (process workers get it
with each chunk), each query's search is bracketed by a per-query span,
and :attr:`BatchReport.trace` carries the merged, time-sorted event
timeline — ready for :func:`repro.obs.export.write_chrome_trace`,
which lays workers out as separate ``pid`` lanes.  Tracing never
changes results: the property tests assert plans, costs, and stats are
bit-identical with tracing on and off in every mode.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.tracer import WorkerTracer
from repro.volcano.plancache import DEFAULT_MAX_ENTRIES, PlanCache
from repro.volcano.search import (
    NO_HEURISTICS,
    SearchOptions,
    SearchStats,
    VolcanoOptimizer,
)

from repro.parallel.worker import resolve_factory, serve

#: Seconds a stopping worker gets to exit before it is terminated.
STOP_TIMEOUT_S = 5.0

MODES = ("serial", "thread", "process")


@dataclass
class BatchItem:
    """One query to optimize: an initialized tree over a catalog."""

    tree: Any
    catalog: Any
    required: "tuple | None" = None
    label: str = ""


@dataclass
class BatchItemResult:
    """One item's finished optimization, in the input batch's order."""

    index: int
    label: str
    plan: Any
    cost: float
    stats: SearchStats


@dataclass
class BatchReport:
    """The whole batch's outcome plus throughput accounting."""

    results: "list[BatchItemResult]"
    stats: SearchStats
    mode: str
    workers: int
    elapsed_seconds: float
    merged_entries: int = 0
    worker_cache_stats: list = field(default_factory=list)
    #: Merged event timeline (time-sorted dicts) when the batch ran
    #: traced, else ``None``.  Feed to ``write_chrome_trace``.
    trace: "list[dict] | None" = None

    @property
    def queries_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.results) / self.elapsed_seconds

    @property
    def costs(self) -> "list[float]":
        return [r.cost for r in self.results]

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "queries": len(self.results),
            "elapsed_seconds": self.elapsed_seconds,
            "queries_per_second": self.queries_per_second,
            "merged_entries": self.merged_entries,
            "worker_cache_stats": list(self.worker_cache_stats),
            "trace_events": len(self.trace) if self.trace is not None else 0,
        }


def _chunk(items: Sequence, parts: int) -> "list[list]":
    """Stripe ``items`` round-robin into at most ``parts`` runs.

    Striping rather than contiguous splitting: batches are often ordered
    easy-to-hard (Q1..Q8), and a contiguous split hands one worker every
    expensive query, so the whole batch runs at that worker's pace.
    Round-robin spreads neighbours across workers, balancing skewed
    batches without needing per-item cost estimates.  Results are
    re-sorted by input index afterwards, so the split never shows.
    """
    parts = max(1, min(parts, len(items)))
    return [list(items[i::parts]) for i in range(parts)]


class RemoteTraceback(Exception):
    """A batch worker's formatted traceback, chained as the cause of the
    worker exception that :meth:`BatchOptimizer.run` re-raises."""

    def __str__(self) -> str:
        return self.args[0]


@dataclass
class _Worker:
    """The parent's handle on one long-lived worker process."""

    process: Any
    conn: Any
    #: Portable plan-cache keys the worker holds, as far as the parent
    #: knows: the parent's keys at the last chunk sent (which shipped
    #: the ones it lacked) plus the ones received from it since.
    known: "set[tuple]" = field(default_factory=set)
    #: The parent cache's ``clears`` count at the last chunk sent.
    clears: int = 0


def _stop_workers(workers: "list[_Worker]") -> None:
    """Stop and reap ``workers`` and empty the list (idempotent)."""
    for worker in workers:
        try:
            worker.conn.send_bytes(pickle.dumps(None))
        except OSError:
            pass  # already gone
    for worker in workers:
        worker.process.join(STOP_TIMEOUT_S)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join()
        worker.conn.close()
    workers.clear()


class BatchOptimizer:
    """Optimize batches of queries with a persistent shared plan cache.

    Parameters
    ----------
    factory_spec:
        ``"module:attr"`` rule-set factory (see
        :func:`repro.parallel.worker.resolve_factory`).  The parent
        resolves it eagerly — serial and thread modes use the rule set
        in-process — and process workers re-resolve it on their side.
    factory_args:
        Arguments for a callable factory (e.g. ``("oodb",)``).
    mode:
        ``"serial"``, ``"thread"``, or ``"process"``.
    workers:
        Worker count for thread/process modes (default: CPU count).
    options / cache_max_entries:
        Search options and plan-cache bound shared by every worker.
    trace:
        When true, every :meth:`run` collects a merged cross-worker
        event timeline into :attr:`BatchReport.trace`.

    The parent-side :attr:`cache` outlives :meth:`run` calls: its
    entries seed every process worker, and the entries workers store
    merge back after each batch, so a second batch of similar queries
    is mostly cache hits in any mode.

    Process mode keeps its worker processes between :meth:`run` calls;
    :meth:`close` (or leaving a ``with`` block) stops them, and an
    optimizer dropped without ``close()`` stops them when collected.
    """

    def __init__(
        self,
        factory_spec: str,
        factory_args: tuple = (),
        mode: str = "process",
        workers: "int | None" = None,
        options: SearchOptions = NO_HEURISTICS,
        cache_max_entries: int = DEFAULT_MAX_ENTRIES,
        trace: bool = False,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.factory_spec = factory_spec
        self.factory_args = tuple(factory_args)
        self.mode = mode
        self.workers = max(1, workers or os.cpu_count() or 1)
        self.options = options
        self.cache_max_entries = cache_max_entries
        self.trace = bool(trace)
        self.ruleset = resolve_factory(factory_spec, self.factory_args)
        self.cache = PlanCache(cache_max_entries)
        self._workers: "list[_Worker]" = []
        self._lock = threading.Lock()
        weakref.finalize(self, _stop_workers, self._workers)

    # -- public API --------------------------------------------------------

    def run(self, items: "Sequence[BatchItem]") -> BatchReport:
        """Optimize every item; results come back in input order.

        With tracing on, the report's :attr:`~BatchReport.trace` is the
        whole batch's merged timeline: the parent's ``batch_begin`` /
        ``batch_end`` bracket plus every worker's events, all stamped
        against the same epoch and sorted by timestamp.
        """
        started = time.perf_counter()
        tracer: "WorkerTracer | None" = None
        if self.trace:
            tracer = WorkerTracer(worker_id=os.getpid(), epoch=started)
            tracer.emit(
                "batch_begin",
                mode=self.mode,
                workers=self.workers,
                queries=len(items),
            )
        if not items:
            report = BatchReport(
                results=[],
                stats=SearchStats(),
                mode=self.mode,
                workers=self.workers,
                elapsed_seconds=time.perf_counter() - started,
            )
        elif self.mode == "process":
            report = self._run_process(items, tracer)
        elif self.mode == "thread":
            report = self._run_thread(items, tracer)
        else:
            report = self._run_serial(items, tracer)
        report.elapsed_seconds = time.perf_counter() - started
        merged_stats = SearchStats()
        for item_result in report.results:
            merged_stats.merge(item_result.stats)
        report.stats = merged_stats
        if tracer is not None:
            tracer.emit(
                "batch_end",
                mode=self.mode,
                queries=len(report.results),
                elapsed_s=report.elapsed_seconds,
            )
            events = tracer.drain()
            if report.trace:
                events.extend(report.trace)
            events.sort(key=lambda event: event.get("ts", 0.0))
            report.trace = events
        return report

    # -- modes -------------------------------------------------------------

    def _optimize_one(
        self, item: BatchItem, index: int, tracer: "WorkerTracer | None"
    ) -> BatchItemResult:
        optimizer = VolcanoOptimizer(
            self.ruleset,
            item.catalog,
            options=self.options,
            plan_cache=self.cache,
            tracer=tracer,
        )
        if tracer is not None:
            with tracer.query_span(item.label, index=index):
                result = optimizer.optimize(item.tree, item.required)
        else:
            result = optimizer.optimize(item.tree, item.required)
        return BatchItemResult(
            index=index,
            label=item.label,
            plan=result.plan,
            cost=result.cost,
            stats=result.stats,
        )

    def _run_serial(
        self, items: "Sequence[BatchItem]", tracer=None
    ) -> BatchReport:
        results = [
            self._optimize_one(item, index, tracer)
            for index, item in enumerate(items)
        ]
        return self._report(results, [self.cache.stats()])

    def _run_thread(
        self, items: "Sequence[BatchItem]", tracer=None
    ) -> BatchReport:
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [
                pool.submit(self._optimize_one, item, index, tracer)
                for index, item in enumerate(items)
            ]
            results = [future.result() for future in futures]
        results.sort(key=lambda r: r.index)
        return self._report(results, [self.cache.stats()])

    def _run_process(
        self, items: "Sequence[BatchItem]", tracer=None
    ) -> BatchReport:
        payload_items = [
            (index, item.label, item.tree, item.catalog, item.required)
            for index, item in enumerate(items)
        ]
        chunks = _chunk(payload_items, self.workers)
        emit = tracer.emit if tracer is not None else None
        epoch = tracer.epoch if tracer is not None else None
        with self._lock:
            # Read before the snapshots: an invalidate() racing with this
            # run then shows as a moved count on the next run.
            clears = self.cache.clears
            parent_keys = self.cache.snapshot(
                self.ruleset, self.factory_spec
            ).keys()
            workers = self._live_workers()[: len(chunks)]
            # Pickle every payload before sending any, so an item that
            # does not pickle fails the run with no worker mid-chunk.
            payloads = []
            for worker, chunk in zip(workers, chunks):
                reset = worker.clears != clears
                if reset:
                    worker.known = set()
                delta = self.cache.snapshot(
                    self.ruleset, self.factory_spec, worker.known, emit=emit
                )
                payloads.append(pickle.dumps((chunk, delta, reset, epoch)))
            try:
                replies, failure = self._exchange(workers, payloads)
            except BaseException:
                # An abandoned exchange leaves replies in the pipes for
                # the next run to misread: replace every worker instead.
                for worker in self._workers:
                    worker.process.terminate()
                _stop_workers(self._workers)
                raise
            results: "list[BatchItemResult]" = []
            merged = 0
            worker_stats = []
            worker_events: "list[dict]" = []
            for worker, reply in replies:
                # The delta filled exactly the gap, so the worker holds
                # every parent key (keys the parent dropped fall out of
                # its known set here) plus the ones it just stored.
                worker.known = set(parent_keys)
                worker.clears = clears
                if reply is None:
                    continue  # the chunk raised; the failure re-raises below
                chunk_results, fresh, cache_stats, events = reply
                for index, plan, cost, stats in chunk_results:
                    results.append(
                        BatchItemResult(
                            index=index,
                            label=items[index].label,
                            plan=plan,
                            cost=cost,
                            stats=stats,
                        )
                    )
                merged += self.cache.merge_snapshot(
                    fresh, self.ruleset, emit=emit
                )
                worker.known.update(fresh.keys())
                worker_stats.append(cache_stats)
                if events:
                    worker_events.extend(events)
        if failure is not None:
            error, text = failure
            if text:
                raise error from RemoteTraceback(text)
            raise error
        results.sort(key=lambda r: r.index)
        report = self._report(results, worker_stats)
        report.merged_entries = merged
        if worker_events:
            report.trace = worker_events
        return report

    def _exchange(self, workers, payloads) -> tuple:
        """Send each worker its payload, then read every reply.

        Returns ``(replies, failure)``: ``replies`` pairs each worker
        that took its chunk with its reply (``None`` when the chunk
        raised), and ``failure`` is the first ``(exception,
        traceback_text)`` seen, or ``None``.  A worker whose pipe broke
        is reaped (and replaced by the next run).
        """
        failure = None
        sent = []
        for worker, payload in zip(workers, payloads):
            try:
                worker.conn.send_bytes(payload)
            except OSError:
                failure = failure or self._lost(worker)
            else:
                sent.append(worker)
        replies = []
        for worker in sent:
            try:
                error, reply = pickle.loads(worker.conn.recv_bytes())
            except (EOFError, OSError):
                failure = failure or self._lost(worker)
                continue
            if error is not None:
                failure = failure or (error, reply)
                reply = None
            replies.append((worker, reply))
        return replies, failure

    # -- process workers ---------------------------------------------------

    def _live_workers(self) -> "list[_Worker]":
        """The worker set, started on first use; dead workers replaced."""
        if not self._workers:
            self._workers.extend(
                self._start_worker() for _ in range(self.workers)
            )
        for slot, worker in enumerate(self._workers):
            if not worker.process.is_alive():
                _stop_workers([worker])
                self._workers[slot] = self._start_worker()
        return self._workers

    def _start_worker(self) -> "_Worker":
        context = multiprocessing.get_context()
        conn, child_conn = context.Pipe()
        process = context.Process(
            target=serve,
            args=(
                child_conn,
                self.factory_spec,
                self.factory_args,
                self.options,
                self.cache_max_entries,
            ),
            name="batch-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, conn, clears=self.cache.clears)

    @staticmethod
    def _lost(worker: "_Worker") -> tuple:
        """Reap a worker whose pipe broke; the next run replaces it."""
        pid = worker.process.pid
        _stop_workers([worker])
        error = RuntimeError(
            f"batch worker {pid} exited unexpectedly "
            f"(exit code {worker.process.exitcode})"
        )
        return error, None

    def close(self) -> None:
        """Stop the process workers.  Idempotent; a later process-mode
        :meth:`run` starts a fresh worker set."""
        with self._lock:
            _stop_workers(self._workers)

    def __enter__(self) -> "BatchOptimizer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _report(self, results, worker_stats) -> BatchReport:
        return BatchReport(
            results=results,
            stats=SearchStats(),
            mode=self.mode,
            workers=self.workers,
            elapsed_seconds=0.0,
            worker_cache_stats=worker_stats,
        )

"""Tests for the parallel batch optimizer (:mod:`repro.parallel`).

The core guarantee under test: **bit-identical results** — same plans
(EXPLAIN text), same costs — across serial and process modes and any
worker count.  Plus the cache plumbing: warm parent caches seed
workers, worker snapshots merge back, and the metrics bridge reports
batch throughput.
"""

import gc
import multiprocessing
import os
import pickle
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_optimizer_pair
from repro.obs import MetricsRegistry
from repro.parallel import (
    MODES,
    BatchItem,
    BatchOptimizer,
    BatchReport,
    resolve_factory,
)
from repro.volcano.explain import explain_plan
from repro.workloads.queries import make_query_instance

FACTORY = "repro.bench.harness:generated_ruleset"

# Small-and-fast query pool for batches (2-join instances).
POOL = [("Q1", 2), ("Q2", 2), ("Q3", 2), ("Q4", 2), ("Q5", 2), ("Q6", 2)]


def make_items(picks):
    pair = build_optimizer_pair("oodb")
    items = []
    for qname, joins in picks:
        catalog, tree = make_query_instance(pair.schema, qname, joins, 0)
        items.append(
            BatchItem(tree=tree, catalog=catalog, label=f"{qname}/{joins}")
        )
    return items


def signature(report: BatchReport):
    return [
        (r.label, r.cost, explain_plan(r.plan)) for r in report.results
    ]


class TestFactory:
    def test_resolves_callable_with_args(self):
        ruleset = resolve_factory(FACTORY, ("oodb",))
        assert ruleset is build_optimizer_pair("oodb").generated

    def test_resolves_plain_attribute(self):
        import repro.bench.harness as harness

        harness._TEST_RULESET = object()
        try:
            obj = resolve_factory("repro.bench.harness:_TEST_RULESET")
            assert obj is harness._TEST_RULESET
        finally:
            del harness._TEST_RULESET

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError):
            resolve_factory("no-colon-here")

    def test_unknown_module_propagates(self):
        with pytest.raises(ModuleNotFoundError):
            resolve_factory("no.such.module:attr")


class TestModesAgree:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            BatchOptimizer(FACTORY, ("oodb",), mode="fibers")

    def test_empty_batch(self):
        report = BatchOptimizer(FACTORY, ("oodb",), mode="serial").run([])
        assert report.results == []
        assert report.queries_per_second == 0.0

    def test_all_modes_bit_identical(self):
        items = make_items(POOL[:4])
        signatures = {}
        for mode in MODES:
            optimizer = BatchOptimizer(
                FACTORY, ("oodb",), mode=mode, workers=2
            )
            signatures[mode] = signature(optimizer.run(items))
        assert signatures["serial"] == signatures["process"]

    def test_worker_count_does_not_change_results(self):
        items = make_items(POOL)
        baseline = signature(
            BatchOptimizer(FACTORY, ("oodb",), mode="serial").run(items)
        )
        for workers in (1, 3):
            with BatchOptimizer(
                FACTORY, ("oodb",), mode="process", workers=workers
            ) as optimizer:
                assert signature(optimizer.run(items)) == baseline

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        picks=st.lists(st.sampled_from(POOL), min_size=1, max_size=5),
        workers=st.integers(min_value=1, max_value=4),
    )
    def test_property_process_mode_matches_serial(self, picks, workers):
        """Any batch composition (duplicates included), any worker
        count: process mode reproduces serial bit-for-bit."""
        items = make_items(picks)
        serial = BatchOptimizer(FACTORY, ("oodb",), mode="serial")
        with BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=workers
        ) as parallel:
            assert signature(serial.run(items)) == signature(parallel.run(items))

    def test_results_come_back_in_input_order(self):
        items = make_items([("Q5", 2), ("Q1", 2), ("Q3", 2)])
        with BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=3
        ) as optimizer:
            report = optimizer.run(items)
        assert [r.label for r in report.results] == [
            "Q5/2", "Q1/2", "Q3/2",
        ]
        assert [r.index for r in report.results] == [0, 1, 2]


class TestBatchTracing:
    def test_untraced_report_has_no_trace(self):
        report = BatchOptimizer(FACTORY, ("oodb",), mode="serial").run(
            make_items(POOL[:1])
        )
        assert report.trace is None
        assert report.as_dict()["trace_events"] == 0

    def test_tracing_does_not_change_results(self):
        """Acceptance: results bit-identical to serial mode with tracing
        on and off, in every mode."""
        items = make_items(POOL[:4])
        reference = signature(
            BatchOptimizer(FACTORY, ("oodb",), mode="serial").run(items)
        )
        for mode in MODES:
            traced = BatchOptimizer(
                FACTORY, ("oodb",), mode=mode, workers=2, trace=True
            )
            assert signature(traced.run(items)) == reference

    def test_serial_trace_brackets_every_query(self):
        items = make_items(POOL[:3])
        report = BatchOptimizer(
            FACTORY, ("oodb",), mode="serial", trace=True
        ).run(items)
        trace = report.trace
        assert trace is not None
        assert trace[0]["type"] == "batch_begin"
        assert trace[-1]["type"] == "batch_end"
        begins = [
            e for e in trace
            if e["type"] == "span_begin" and e.get("name") == "optimize_query"
        ]
        assert sorted(e["label"] for e in begins) == sorted(
            item.label for item in items
        )
        # merged timeline is time-sorted
        stamps = [e["ts"] for e in trace]
        assert stamps == sorted(stamps)

    def test_process_trace_merges_worker_lanes(self):
        """Acceptance: a multi-worker process batch yields one merged
        timeline with a span per optimized query, tagged by worker."""
        items = make_items(POOL)
        report = BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=3, trace=True
        ).run(items)
        trace = report.trace
        assert trace is not None
        workers = {e.get("worker") for e in trace}
        assert None not in workers  # every event is worker-tagged
        # parent + at least one pool worker (the pool may reuse
        # processes, so exactly-3 cannot be asserted portably)
        assert len(workers) >= 2
        begins = [
            e for e in trace
            if e["type"] == "span_begin" and e.get("name") == "optimize_query"
        ]
        assert sorted(e["label"] for e in begins) == sorted(
            item.label for item in items
        )
        ends = [
            e for e in trace
            if e["type"] == "span_end" and e.get("name") == "optimize_query"
        ]
        assert len(ends) == len(begins)
        assert all(e["elapsed_s"] >= 0.0 for e in ends)
        stamps = [e["ts"] for e in trace]
        assert stamps == sorted(stamps)
        # events carry the plan-cache IPC spans too
        names = {
            e.get("name") for e in trace if e["type"] == "span_end"
        }
        assert "plan_cache.snapshot" in names

    def test_chrome_export_of_merged_trace_has_worker_lanes(self, tmp_path):
        import json

        from repro.obs import write_chrome_trace

        items = make_items(POOL[:4])
        report = BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2, trace=True
        ).run(items)
        path = str(tmp_path / "merged.json")
        write_chrome_trace(report.trace, path)
        with open(path, encoding="utf-8") as handle:
            records = json.load(handle)["traceEvents"]
        meta_pids = {r["pid"] for r in records if r["ph"] == "M"}
        event_pids = {r["pid"] for r in records if r["ph"] != "M"}
        assert meta_pids == event_pids
        assert len(event_pids) >= 2

    def test_process_trace_query_spans_are_unique_per_worker(self):
        items = make_items(POOL[:4])
        with BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2, trace=True
        ) as optimizer:
            trace = optimizer.run(items).trace
        assert trace is not None
        begins = [
            e for e in trace
            if e["type"] == "span_begin" and e.get("name") == "optimize_query"
        ]
        assert len(begins) == len(items)
        # a (worker, span) pair names exactly one query
        ids = [(e["worker"], e["span"]) for e in begins]
        assert len(set(ids)) == len(ids)


class TestCachePlumbing:
    def test_serial_second_batch_hits_cache(self):
        # Q1/Q3/Q5 have pairwise-distinct fingerprints (Q1/Q2, Q3/Q4,
        # Q5/Q6 each share one at two joins while carrying different
        # catalogs, which would thrash the fingerprint-keyed slot by
        # design).
        items = make_items([("Q1", 2), ("Q3", 2), ("Q5", 2)])
        optimizer = BatchOptimizer(FACTORY, ("oodb",), mode="serial")
        cold = optimizer.run(items)
        warm = optimizer.run(items)
        assert signature(cold) == signature(warm)
        assert warm.stats.plan_cache_hits == len(items)

    def test_process_mode_merges_worker_snapshots(self):
        items = make_items([("Q1", 2), ("Q3", 2), ("Q5", 2)])
        optimizer = BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2
        )
        report = optimizer.run(items)
        assert report.merged_entries > 0
        assert len(optimizer.cache) == report.merged_entries
        assert optimizer.cache.stats()["merged_in"] == report.merged_entries
        assert len(report.worker_cache_stats) == 2

    def test_process_workers_seeded_from_parent_cache(self):
        """A second process batch starts warm: workers inherit the
        parent snapshot, so at least the queries whose catalog token
        matches come back as cache hits."""
        items = make_items([("Q3", 2), ("Q5", 2)])
        optimizer = BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2
        )
        cold = optimizer.run(items)
        warm = optimizer.run(items)
        assert signature(cold) == signature(warm)
        assert warm.stats.plan_cache_hits >= 1

    def test_worker_cache_stats_are_per_run_in_every_mode(self):
        """Serial mode reports its cache counters per run, as process
        workers report theirs per chunk."""
        items = make_items([("Q1", 1), ("Q3", 1), ("Q5", 1)])
        counts = {}
        for mode in MODES:
            with BatchOptimizer(
                FACTORY, ("oodb",), mode=mode, workers=2
            ) as optimizer:
                counts[mode] = [
                    [
                        (s["hits"], s["misses"])
                        for s in optimizer.run(items).worker_cache_stats
                    ]
                    for _ in range(3)
                ]
        assert counts["serial"] == [[(0, 3)], [(3, 0)], [(3, 0)]]
        assert counts["process"] == [
            [(0, 2), (0, 1)], [(2, 0), (1, 0)], [(2, 0), (1, 0)],
        ]

    def test_batch_stats_aggregate(self):
        items = make_items(POOL[:3])
        report = BatchOptimizer(FACTORY, ("oodb",), mode="serial").run(items)
        assert report.stats.optimize_calls == sum(
            r.stats.optimize_calls for r in report.results
        )
        assert report.stats.elapsed_seconds > 0
        assert report.queries_per_second > 0


class TestReportAndMetrics:
    def test_report_as_dict(self):
        items = make_items(POOL[:2])
        report = BatchOptimizer(FACTORY, ("oodb",), mode="serial").run(items)
        snapshot = report.as_dict()
        assert snapshot["queries"] == 2
        assert snapshot["mode"] == "serial"
        assert snapshot["queries_per_second"] == report.queries_per_second

    def test_metrics_bridge(self):
        items = make_items(POOL[:2])
        optimizer = BatchOptimizer(FACTORY, ("oodb",), mode="serial")
        registry = MetricsRegistry()
        registry.record_batch_report(optimizer.run(items))
        registry.record_batch_report(optimizer.run(items))
        counters = registry.counters()
        assert counters["batch.batches"] == 2
        assert counters["batch.queries"] == 4
        assert counters["batch.search.optimize_calls"] > 0
        gauges = registry.as_dict()["gauges"]
        assert gauges["batch.queries_per_second"] > 0
        assert gauges["batch.workers"] >= 1

    def test_worker_payloads_picklable(self):
        """The exact tuples shipped to process workers must pickle."""
        items = make_items(POOL[:2])
        payload = [
            (index, item.tree, item.catalog, item.required)
            for index, item in enumerate(items)
        ]
        clone = pickle.loads(pickle.dumps(payload))
        assert len(clone) == 2


def worker_pids(report: BatchReport) -> "dict[int, int]":
    """``{item index: pid of the worker that optimized it}`` from a
    traced process report."""
    return {
        e["index"]: e["worker"]
        for e in report.trace
        if e["type"] == "span_begin" and e.get("name") == "optimize_query"
    }


def wait_dead(pid: int, timeout: float = 10.0) -> None:
    """Wait until ``pid`` is no longer a live child of this process."""
    deadline = time.monotonic() + timeout
    while any(p.pid == pid for p in multiprocessing.active_children()):
        assert time.monotonic() < deadline, f"worker {pid} still alive"
        time.sleep(0.02)


class TestLongLivedWorkers:
    """Process workers outlive run(): their caches stay warm, yet every
    run behaves as if it had a fresh, parent-seeded pool."""

    ITEMS = [("Q1", 2), ("Q3", 2), ("Q5", 2)]

    def test_workers_survive_between_runs(self):
        items = make_items(self.ITEMS)
        with BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2, trace=True
        ) as optimizer:
            first = worker_pids(optimizer.run(items))
            second = worker_pids(optimizer.run(items))
        assert first == second
        assert os.getpid() not in first.values()

    def test_worker_cache_stats_are_per_run(self):
        items = make_items(self.ITEMS)
        with BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2
        ) as optimizer:
            optimizer.run(items)
            second = optimizer.run(items)
        stats = second.worker_cache_stats
        assert sum(s["hits"] + s["misses"] for s in stats) == len(items)
        assert sum(s["hits"] for s in stats) == len(items)
        assert sum(s["entries"] for s in stats) == 2 * len(items)

    def test_delta_sync_traffic_is_pinned(self):
        """Three identical runs: the first ships each worker's stores
        back, the second fills each worker with the other stripe's
        entries, and the third ships nothing in either direction."""
        items = make_items(self.ITEMS)
        traffic = []
        with BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2
        ) as optimizer:
            for _ in range(3):
                report = optimizer.run(items)
                traffic.append(
                    (
                        report.merged_entries,
                        [s["merged_in"] for s in report.worker_cache_stats],
                    )
                )
        assert traffic == [(3, [0, 0]), (0, [1, 2]), (0, [0, 0])]

    def test_parent_invalidate_clears_worker_caches(self):
        items = make_items(self.ITEMS)
        reports = {}
        for mode in ("serial", "process"):
            with BatchOptimizer(
                FACTORY, ("oodb",), mode=mode, workers=2
            ) as optimizer:
                optimizer.run(items)
                optimizer.cache.invalidate()
                reports[mode] = optimizer.run(items)
        assert reports["serial"].stats.plan_cache_hits == 0
        assert reports["process"].stats.plan_cache_hits == 0
        assert signature(reports["process"]) == signature(reports["serial"])

    def test_second_traced_run_stamps_against_its_own_epoch(self):
        items = make_items(self.ITEMS)
        with BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2, trace=True
        ) as optimizer:
            optimizer.run(items)
            trace = optimizer.run(items).trace
        begin = next(e["ts"] for e in trace if e["type"] == "batch_begin")
        end = next(e["ts"] for e in trace if e["type"] == "batch_end")
        worker_events = [e for e in trace if e["worker"] != os.getpid()]
        assert worker_events
        assert all(begin <= e["ts"] <= end for e in worker_events)

    def test_worker_exception_reraises_and_next_run_is_clean(self):
        items = make_items(self.ITEMS)
        bad = BatchItem(tree="not a tree", catalog=items[0].catalog)
        expected = signature(
            BatchOptimizer(FACTORY, ("oodb",), mode="serial").run(items)
        )
        with BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2
        ) as optimizer:
            with pytest.raises(AttributeError):
                optimizer.run(items + [bad])
            assert signature(optimizer.run(items)) == expected

    def test_killed_worker_is_replaced_with_an_empty_cache(self):
        items = make_items(self.ITEMS)
        expected = signature(
            BatchOptimizer(FACTORY, ("oodb",), mode="serial").run(items)
        )
        with BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2, trace=True
        ) as optimizer:
            pids = worker_pids(optimizer.run(items))
            os.kill(pids[0], signal.SIGKILL)
            wait_dead(pids[0])
            report = optimizer.run(items)
        assert signature(report) == expected
        replacement = worker_pids(report)
        assert replacement[0] != pids[0]
        assert replacement[1] == pids[1]
        # The replacement knew nothing, so the whole parent cache was
        # shipped to it; the survivor only lacked the other stripe's.
        first, second = report.worker_cache_stats
        assert first["merged_in"] == len(items)
        assert second["merged_in"] == len(items) - 1
        assert report.stats.plan_cache_hits == len(items)

    def test_close_reaps_workers_and_is_idempotent(self):
        items = make_items(self.ITEMS)
        optimizer = BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2, trace=True
        )
        pids = set(worker_pids(optimizer.run(items)).values())
        assert pids <= {p.pid for p in multiprocessing.active_children()}
        optimizer.close()
        optimizer.close()
        assert not pids & {p.pid for p in multiprocessing.active_children()}
        # a closed optimizer starts a fresh worker set on demand
        again = set(worker_pids(optimizer.run(items)).values())
        assert not again & pids
        optimizer.close()
        assert not again & {p.pid for p in multiprocessing.active_children()}

    def test_dropped_optimizer_reaps_workers(self):
        items = make_items(self.ITEMS)
        optimizer = BatchOptimizer(
            FACTORY, ("oodb",), mode="process", workers=2, trace=True
        )
        pids = set(worker_pids(optimizer.run(items)).values())
        del optimizer
        gc.collect()
        assert not pids & {p.pid for p in multiprocessing.active_children()}

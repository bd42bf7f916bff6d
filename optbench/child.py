"""One benchmark process: set a workload up, then drive it for a fixed time.

``run.py`` starts this script in a fresh interpreter for every set-up
and measurement, so that set-up time (imports, DSL compile, translate,
catalogs, optimizers, cache warm-up) and peak memory are those of a
process that starts cold.  It prints one JSON object on stdout.

All requests reach the optimizer through its public API only:
``VolcanoOptimizer(ruleset, catalog, plan_cache=<shared PlanCache>)
.optimize(tree)`` for the single-query workloads, and
``BatchOptimizer.run`` for ``batch_process``.  Only the calls are timed;
building requests and checking answers happen between them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from array import array
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

WORKLOADS = ("cold_mix", "hot_repeat", "catalog_churn", "batch_process")

# The timed phase is cut into slices of equal work, and the end-to-end
# figures are those of the quietest slices (stats.quiet_figures; README,
# "Machine contention").  A cold_mix slice is one round of 100
# requests of fixed class counts; hot_repeat and catalog_churn slices
# close at the first unit boundary after this many seconds (thousands of
# requests each).  batch_process runs 100-200 batches, too few to cut,
# and is one slice.
SLICE_SECONDS = {"cold_mix": 0.0, "hot_repeat": 1.0, "catalog_churn": 1.0,
                 "batch_process": math.inf}

# A run goes on past its time until it holds this many samples, so that
# every percentile is reportable (p90 for batches, p99 otherwise).
MIN_SAMPLES = {"cold_mix": stats.min_samples(99), "hot_repeat": stats.min_samples(99),
               "catalog_churn": stats.min_samples(99),
               "batch_process": stats.min_samples(90)}


class Measurement:
    """What the timed phase of one process observed.

    Samples are kept in flat arrays: the peak memory reported is the
    program's, not the benchmark's bookkeeping.
    """

    def __init__(self) -> None:
        self.latencies = array("d")
        self.classes = array("H")  # index into class_names, per sample
        self.class_names: list = []
        self._class_ids: dict = {}
        self.busy_s = 0.0  # time spent inside program calls
        self.completed = 0  # queries the program answered
        self.attempted = 0
        self.failed = 0
        self.hits = 0
        self.misses = 0
        self.searched = None  # SearchStats summed over searched queries
        self.searches = 0
        self.batches: list = []  # per-run parallel accounting

    def record(self, elapsed: float, cls: str) -> None:
        """One latency sample of a request (or batch) of class ``cls``."""
        class_id = self._class_ids.get(cls)
        if class_id is None:
            class_id = self._class_ids[cls] = len(self.class_names)
            self.class_names.append(cls)
        self.latencies.append(elapsed)
        self.classes.append(class_id)
        self.busy_s += elapsed

    def add_stats(self, search_stats) -> None:
        self.hits += search_stats.plan_cache_hits
        self.misses += search_stats.plan_cache_misses
        if search_stats.plan_cache_hits:
            return
        self.searches += 1
        if self.searched is None:
            self.searched = type(search_stats)()
        self.searched.merge(search_stats)


class SingleQueryClient:
    """A closed-loop client with one request in flight.

    Keeps one optimizer per long-lived catalog (a request whose catalog
    the program has seen reuses it); every other request builds one.
    """

    def __init__(self, ruleset, cache, checker, recorder, keep_text: bool) -> None:
        from repro.volcano.search import VolcanoOptimizer

        self.optimizer_class = VolcanoOptimizer
        self.ruleset = ruleset
        self.cache = cache
        self.checker = checker
        self.recorder = recorder
        self.keep_text = keep_text
        self.optimizers: dict = {}

    def serve(self, request, measurement: "Measurement | None", request_id=None) -> None:
        recorder = self.recorder
        optimizer = self.optimizers.get(request.catalog) if request.long_lived else None
        if recorder is not None:
            recorder.request = request_id
            recorder.active = True
        started = time.perf_counter()
        try:
            if optimizer is None:
                optimizer = self.optimizer_class(
                    self.ruleset, request.catalog, plan_cache=self.cache
                )
            result = optimizer.optimize(request.tree)
        except Exception as exc:  # a failed request is counted; the run goes on
            elapsed = time.perf_counter() - started
            if recorder is not None:
                recorder.active = False
            if measurement is None:
                raise
            measurement.attempted += 1
            measurement.failed += 1
            measurement.busy_s += elapsed
            self.checker.fail(request, f"raised {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - started
        if recorder is not None:
            recorder.active = False
        if request.long_lived:
            self.optimizers[request.catalog] = optimizer
        hit = result.stats.plan_cache_hits > 0
        ok = self.checker.check(request, result.cost, result.plan, hit, self.keep_text)
        if measurement is None:
            if not ok:
                raise RuntimeError("set-up answer check failed: " + self.checker.failures[-1])
            return
        measurement.attempted += 1
        measurement.record(elapsed, request.cls)
        measurement.completed += 1
        measurement.add_stats(result.stats)
        if not ok:
            measurement.failed += 1


# -- workloads --------------------------------------------------------------------
#
# Each set-up function returns (units, run_unit, cache): ``units`` yields
# the timed phase's units of work (generated untimed), ``run_unit`` runs
# one, and ``cache`` is the plan cache whose counters the traced run reads.


def setup_cold_mix(env):
    import traffic

    client = SingleQueryClient(env.ruleset, env.new_cache(), env.checker, env.recorder, False)
    rounds = traffic.cold_rounds(env.schema, env.seed)

    def run_unit(unit, measurement):
        for request in unit:
            client.serve(request, measurement, env.next_request_id())

    return rounds, run_unit, client.cache


def _hot_client(env, workload: str):
    import traffic

    pool = traffic.HotPool(env.seed, workload)
    client = SingleQueryClient(env.ruleset, env.new_cache(), env.checker, env.recorder, True)
    for member in range(len(pool.members)):  # warm the cache
        client.serve(pool.request(env.schema, member), None)
    return pool, client


def setup_hot_repeat(env):
    import traffic

    pool, client = _hot_client(env, "hot_repeat")
    slots = traffic.hot_stream(env.seed, len(pool.members))

    def units():
        while True:
            yield pool.request(env.schema, next(slots))

    def run_unit(request, measurement):
        client.serve(request, measurement, env.next_request_id())

    return units(), run_unit, client.cache


def setup_catalog_churn(env):
    import traffic

    pool, client = _hot_client(env, "catalog_churn")
    blocks = traffic.churn_blocks(env.seed, len(pool.members))
    ddl_serial = iter(range(1, 1 << 30))

    def refresh(member: int) -> None:
        # A new catalog (generation, untimed); the client stops serving
        # the old one, whose cache entries are left to the LRU.
        client.optimizers.pop(pool.members[member][2], None)
        pool.refresh(member)

    # Start from the steady state: refresh members until replaced entries
    # fill the cache to its bound, so memory does not grow with the
    # number of writes a run gets through.
    member = 0
    while len(client.cache) < client.cache.max_entries:
        refresh(member)
        client.serve(pool.request(env.schema, member), None)
        member = (member + 1) % len(pool.members)

    def run_unit(block, measurement):
        for step in block:
            if isinstance(step, traffic.Write):
                if step.kind == "refresh":
                    refresh(step.member)
                    continue
                info = traffic.ddl_file(next(ddl_serial))
                catalog = pool.members[step.member][2]
                if env.recorder is not None:
                    env.recorder.request = env.next_request_id()
                    env.recorder.active = True
                started = time.perf_counter()
                catalog.add(info)
                measurement.busy_s += time.perf_counter() - started
                if env.recorder is not None:
                    env.recorder.active = False
            else:
                client.serve(pool.request(env.schema, step), measurement, env.next_request_id())

    return blocks, run_unit, client.cache


def setup_batch_process(env):
    import traffic
    from repro.parallel.batch import BatchItem, BatchOptimizer

    optimizer = BatchOptimizer(
        "repro.bench.harness:generated_ruleset",
        ("oodb",),
        mode="process",
        workers=traffic.BATCH_WORKERS,
        cache_max_entries=traffic.BATCH_CACHE_ENTRIES,
    )
    batches = traffic.batch_stream(env.schema, env.seed)
    # Fill the long-lived parent cache to its bound with the same traffic,
    # so every timed batch ships and merges a full snapshot.
    warm = SingleQueryClient(optimizer.ruleset, optimizer.cache, env.checker, env.recorder, False)
    while len(optimizer.cache) < optimizer.cache.max_entries:
        for request in next(batches):
            warm.serve(request, None)

    def run_unit(batch, measurement):
        items = [BatchItem(tree=r.tree, catalog=r.catalog, label=r.cls) for r in batch]
        recorder = env.recorder
        snapshot_entries = len(optimizer.cache)
        if recorder is not None:
            recorder.request = env.next_request_id()
            recorder.active = True
        started = time.perf_counter()
        try:
            report = optimizer.run(items)
        except Exception as exc:  # the whole batch failed; counted, the run goes on
            measurement.busy_s += time.perf_counter() - started
            measurement.attempted += len(batch)
            measurement.failed += len(batch)
            env.checker.fail(batch[0], f"batch raised {type(exc).__name__}: {exc}")
            return
        finally:
            if recorder is not None:
                recorder.active = False
        elapsed = time.perf_counter() - started
        if recorder is not None:
            recorder.collect_spilled()
        measurement.record(elapsed, "batch")
        stripes = [0.0] * optimizer.workers
        for result in report.results:
            request = batch[result.index]
            measurement.attempted += 1
            measurement.completed += 1
            measurement.add_stats(result.stats)
            stripes[result.index % optimizer.workers] += result.stats.elapsed_seconds
            if not env.checker.check(request, result.cost, result.plan, False, False):
                measurement.failed += 1
        workers_stats = report.worker_cache_stats
        measurement.batches.append({
            "run_s": elapsed,
            "stripes": stripes,
            "snapshot_entries": snapshot_entries,
            "merged_entries": report.merged_entries,
            "worker_invalidations": sum(s["invalidations"] for s in workers_stats),
            "worker_evictions": sum(s["evictions"] for s in workers_stats),
        })

    return batches, run_unit, optimizer.cache


SETUPS = {
    "cold_mix": setup_cold_mix,
    "hot_repeat": setup_hot_repeat,
    "catalog_churn": setup_catalog_churn,
    "batch_process": setup_batch_process,
}


class Env:
    """Shared set-up state handed to the workload set-up functions."""

    def __init__(self, seed: int, recorder) -> None:
        from repro.bench.harness import generated_ruleset
        from repro.volcano.explain import explain_plan

        import answers

        self.seed = seed
        self.recorder = recorder
        self.ruleset = generated_ruleset("oodb")
        self.schema = self.ruleset.schema
        self.checker = answers.AnswerChecker(answers.load_expected(), explain_plan)
        self._request_ids = iter(range(1 << 62))

    def new_cache(self):
        from repro.volcano.plancache import PlanCache

        return PlanCache()

    def next_request_id(self) -> int:
        return next(self._request_ids)


def timed_phase(workload: str, seconds: float, units, run_unit, measurement) -> tuple:
    """Run whole units until ``seconds`` have passed, a slice has just
    closed and the run holds :data:`MIN_SAMPLES`; returns the slices as
    ``(first sample, end sample, busy seconds, queries)`` and the class
    the run ran out of instances of, if any."""
    import traffic

    slice_seconds = SLICE_SECONDS[workload]
    slices = []
    started = time.perf_counter()
    deadline = started + seconds
    slice_started, first, busy, completed = started, 0, 0.0, 0
    exhausted = None
    while True:
        try:
            unit = next(units)
        except traffic.Exhausted as exc:
            exhausted = str(exc)
            break
        run_unit(unit, measurement)
        now = time.perf_counter()
        closed = now - slice_started >= slice_seconds
        if closed:
            slices.append((first, len(measurement.latencies),
                           measurement.busy_s - busy, measurement.completed - completed))
            slice_started, first = now, len(measurement.latencies)
            busy, completed = measurement.busy_s, measurement.completed
        if (now >= deadline and len(measurement.latencies) >= MIN_SAMPLES[workload]
                and (closed or slice_seconds == math.inf)):
            break
    if first < len(measurement.latencies):
        slices.append((first, len(measurement.latencies),
                       measurement.busy_s - busy, measurement.completed - completed))
    return slices, exhausted


def summarize(measurement, slices) -> dict:
    """The run's figures: the end-to-end ones over the quietest slices,
    and whole-run percentiles with the class each falls in and every
    class's latency band ``(samples, min, median, max)`` in ms."""
    samples = sorted(zip(measurement.latencies, measurement.classes))
    ranks = {f"p{q}": stats.percentile_rank(len(samples), q) for q in (50, 90, 99)}
    by_class: dict = {}
    for value, class_id in samples:
        by_class.setdefault(measurement.class_names[class_id], []).append(value * 1000.0)
    return {
        "slices": len(slices),
        "quiet": stats.quiet_figures(measurement.latencies, slices),
        "samples": len(samples),
        "latency_ms": {name: None if rank is None else 1000.0 * samples[rank - 1][0]
                       for name, rank in ranks.items()},
        "percentile_class": {
            name: None if rank is None else measurement.class_names[samples[rank - 1][1]]
            for name, rank in ranks.items()},
        "class_bands": {
            cls: (len(values), values[0], values[len(values) // 2], values[-1])
            for cls, values in sorted(by_class.items(), key=lambda kv: kv[1][len(kv[1]) // 2])
        },
    }


def measure(workload: str, seconds: float, env, setup_started: float,
            setup_only: bool) -> dict:
    units, run_unit, cache = SETUPS[workload](env)
    setup_s = time.monotonic() - setup_started
    if setup_only:
        return {"setup_s": setup_s}
    cache_before = cache.stats()
    measurement = Measurement()
    started = time.perf_counter()
    slices, exhausted = timed_phase(workload, seconds, units, run_unit, measurement)
    wall_s = time.perf_counter() - started
    peak_rss_mb = stats.peak_rss_mb(include_children=workload == "batch_process")
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "busy_s": measurement.busy_s,
        "completed": measurement.completed,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "failures": env.checker.failures,
        "exhausted": exhausted,
        "peak_rss_mb": peak_rss_mb,
    }
    result.update(summarize(measurement, slices))
    if env.recorder is not None:
        import layers

        result["layers"] = layers.layer_metrics(
            env, measurement, cache_before, cache.stats()
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent launched this process")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

    recorder = None
    if args.trace:
        import spans

        OUT_DIR.mkdir(exist_ok=True)
        spill_dir = OUT_DIR / f"spill-{os.getpid()}"
        spill_dir.mkdir(exist_ok=True)
        recorder = spans.SpanRecorder(spill_dir=spill_dir)
        with spans.installed(recorder):
            env = Env(args.seed, recorder)
            result = measure(args.workload, args.seconds, env, args.started,
                             args.setup_only)
        spans.write_spans(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", recorder.spans
        )
        spill_dir.rmdir()
    else:
        env = Env(args.seed, None)
        result = measure(args.workload, args.seconds, env, args.started,
                         args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

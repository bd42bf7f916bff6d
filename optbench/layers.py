"""Per-layer metrics of a traced run.

Timings come from the spans :mod:`spans` records around calls into each
layer; counts come from the program's own counters (``SearchStats``,
``PlanCache.stats()``, ``BatchReport``).  Unless noted, a metric covers
the timed phase only.  Counts from ``SearchStats`` are means per
searched query (a query the plan cache did not answer); span timings
are means per call.  A metric whose layer does not run in a workload
reads 0.

The layers are this repository's modules: ``prairie`` (DSL compile and
P2V translate), ``volcano.search``, ``volcano.memo``,
``algebra.interning``, ``volcano.plancache``, ``catalog`` and
``parallel``.
"""

from __future__ import annotations

from collections import defaultdict

import spans as span_tools

#: (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("prairie.compile_s", "s"),
    ("prairie.translate_s", "s"),
    ("prairie.volcano_rules", "count"),
    ("volcano.search.construct_ms", "ms"),
    ("volcano.search.self_s", "s"),
    ("volcano.search.trans_considered", "count"),
    ("volcano.search.trans_fired", "count"),
    ("volcano.search.trans_fire_ratio", "ratio"),
    ("volcano.search.impl_considered", "count"),
    ("volcano.search.impl_succeeded", "count"),
    ("volcano.search.impl_success_ratio", "ratio"),
    ("volcano.search.enforcer_applied", "count"),
    ("volcano.search.optimize_calls", "count"),
    ("volcano.search.winners_cached", "count"),
    ("volcano.memo.groups", "count"),
    ("volcano.memo.mexprs", "count"),
    ("volcano.memo.descriptor_objects", "count"),
    ("algebra.interning.shared_ratio", "ratio"),
    ("algebra.interning.values_shared", "count"),
    ("volcano.plancache.key_ms", "ms"),
    ("volcano.plancache.lookup_ms", "ms"),
    ("volcano.plancache.copy_ms", "ms"),
    ("volcano.plancache.store_ms", "ms"),
    ("volcano.plancache.hit_ratio", "ratio"),
    ("volcano.plancache.stale_misses", "count"),
    ("volcano.plancache.evictions", "count"),
    ("volcano.plancache.entries", "count"),
    ("catalog.state_token_ms", "ms"),
    ("catalog.writes", "count"),
    ("parallel.run_s", "s"),
    ("parallel.worker_busy_s", "s"),
    ("parallel.idle_ratio", "ratio"),
    ("parallel.imbalance", "ratio"),
    ("parallel.snapshot_entries", "count"),
    ("parallel.merged_entries", "count"),
    ("trace.overhead_p50_ms", "ms"),
)
UNITS = dict(METRICS)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(env, measurement, cache_before: dict, cache_after: dict) -> dict:
    """Every metric of :data:`METRICS` except ``trace.overhead_p50_ms``,
    which needs the untraced run and is filled in by ``run.py``."""
    recorded = env.recorder.spans
    self_of = span_tools.self_times(recorded)
    durations = defaultdict(list)  # whole process
    timed = defaultdict(list)  # timed phase
    timed_self = defaultdict(list)
    for span in recorded:
        span_id, name, start, end, _parent, request, _pid = span
        durations[name].append(end - start)
        if request is not None:
            timed[name].append(end - start)
            timed_self[name].append(self_of[span_id])

    ruleset = env.ruleset
    searched = measurement.searched
    searches = measurement.searches

    def per_search(attribute: str) -> float:
        return _ratio(getattr(searched, attribute), searches) if searched else 0.0

    values = {
        "prairie.compile_s": sum(durations["prairie.compile"]),
        "prairie.translate_s": sum(durations["prairie.translate"]),
        "prairie.volcano_rules": len(ruleset.trans_rules) + len(ruleset.impl_rules),
        "volcano.search.construct_ms": 1000 * _mean(durations["search.construct"]),
        "volcano.search.self_s": _mean(timed_self["search.optimize"]),
    }
    for counter in ("trans_considered", "trans_fired", "impl_considered",
                    "impl_succeeded", "enforcer_applied", "optimize_calls",
                    "winners_cached"):
        values[f"volcano.search.{counter}"] = per_search(counter)
    if searched is not None:
        values["volcano.search.trans_fire_ratio"] = _ratio(
            searched.trans_fired, searched.trans_considered)
        values["volcano.search.impl_success_ratio"] = _ratio(
            searched.impl_succeeded, searched.impl_considered)
        values["algebra.interning.shared_ratio"] = _ratio(
            searched.descriptors_shared,
            searched.descriptors_shared + searched.descriptors_unique)
    values["volcano.memo.groups"] = per_search("groups")
    values["volcano.memo.mexprs"] = per_search("mexprs")
    values["volcano.memo.descriptor_objects"] = per_search("memo_descriptor_objects")
    values["algebra.interning.values_shared"] = per_search("descriptor_values_shared")

    for layer_name, span_name in (("key", "plancache.key"), ("lookup", "plancache.lookup"),
                                  ("copy", "plancache.copy"), ("store", "plancache.store")):
        values[f"volcano.plancache.{layer_name}_ms"] = 1000 * _mean(timed[span_name])
    batches = measurement.batches
    values["volcano.plancache.hit_ratio"] = _ratio(
        measurement.hits, measurement.hits + measurement.misses)
    values["volcano.plancache.stale_misses"] = (
        cache_after["invalidations"] - cache_before["invalidations"]
        + sum(b["worker_invalidations"] for b in batches))
    values["volcano.plancache.evictions"] = (
        cache_after["evictions"] - cache_before["evictions"]
        + sum(b["worker_evictions"] for b in batches))
    values["volcano.plancache.entries"] = cache_after["entries"]
    values["catalog.state_token_ms"] = 1000 * _mean(timed["catalog.state_token"])
    values["catalog.writes"] = len(timed["catalog.add"])

    if batches:
        workers = len(batches[0]["stripes"])
        busy = [sum(b["stripes"]) for b in batches]
        values["parallel.run_s"] = _mean(timed["parallel.run"])
        values["parallel.worker_busy_s"] = _mean(busy)
        values["parallel.idle_ratio"] = _mean(
            1 - _ratio(work, workers * b["run_s"]) for work, b in zip(busy, batches))
        values["parallel.imbalance"] = _mean(
            _ratio(max(b["stripes"]), _mean(b["stripes"])) for b in batches)
        values["parallel.snapshot_entries"] = _mean(b["snapshot_entries"] for b in batches)
        values["parallel.merged_entries"] = _mean(b["merged_entries"] for b in batches)
    return {name: float(values.get(name, 0.0)) for name, _unit in METRICS
            if name != "trace.overhead_p50_ms"}

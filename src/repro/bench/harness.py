"""Experiment drivers for the Section 4.3 reproduction.

The central object is an :class:`OptimizerPair`: the *same* optimizer in
its two provenances — P2V-generated from the Prairie specification, and
hand-coded directly in the Volcano model.  Every figure of the paper
compares these two on identical queries; :func:`run_query_point`
produces one data point (averaged over cardinality instances) and
:func:`sweep_query` produces a whole curve.
"""

from __future__ import annotations

import os
import statistics
import subprocess
from dataclasses import dataclass, field
from typing import Callable

from repro.optimizers.oodb import build_oodb_prairie
from repro.prairie.ruleset import PrairieRuleSet
from repro.prairie.translate import TranslationResult, translate
from repro.volcano.model import VolcanoRuleSet
from repro.volcano.search import OptimizationResult, VolcanoOptimizer
from repro.workloads.queries import INSTANCES_PER_POINT, make_query_instance
from repro.bench.timing import adaptive_repeats, time_callable

FULL_MODE_ENV = "REPRO_BENCH_FULL"


def full_mode() -> bool:
    """True when the full paper-scale sweep was requested."""
    return os.environ.get(FULL_MODE_ENV, "") not in ("", "0", "false")


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep sizes; the defaults reproduce the paper's axes.

    ``max_joins`` mirrors the paper: E1/E2 ran to 7–8 joins, E3/E4 only
    to 3 before resources ran out.  Quick mode trims the expensive tails
    so the benchmark suite completes in minutes.
    """

    instances: int
    max_joins: dict

    @staticmethod
    def quick() -> "ExperimentConfig":
        return ExperimentConfig(
            instances=2,
            max_joins={"E1": 6, "E2": 3, "E3": 3, "E4": 2},
        )

    @staticmethod
    def full() -> "ExperimentConfig":
        return ExperimentConfig(
            instances=INSTANCES_PER_POINT,
            max_joins={"E1": 8, "E2": 5, "E3": 3, "E4": 3},
        )

    @staticmethod
    def from_environment() -> "ExperimentConfig":
        return ExperimentConfig.full() if full_mode() else ExperimentConfig.quick()


@dataclass
class OptimizerPair:
    """One optimizer, twice: Prairie-generated and hand-coded Volcano."""

    prairie: PrairieRuleSet
    translation: TranslationResult
    hand_coded: VolcanoRuleSet

    @property
    def generated(self) -> VolcanoRuleSet:
        return self.translation.volcano

    @property
    def schema(self):
        return self.prairie.schema


_PAIR_CACHE: dict = {}
_TRANSLATION_CACHE: dict = {}


def _translation(kind: str) -> "tuple[PrairieRuleSet, TranslationResult]":
    """``kind``'s Prairie rule set and its P2V translation (cached)."""
    cached = _TRANSLATION_CACHE.get(kind)
    if cached is None:
        if kind == "oodb":
            prairie = build_oodb_prairie()
        elif kind == "relational":
            from repro.optimizers.relational import build_relational_prairie

            prairie = build_relational_prairie()
        else:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        cached = _TRANSLATION_CACHE[kind] = (prairie, translate(prairie))
    return cached


def build_optimizer_pair(kind: str = "oodb") -> OptimizerPair:
    """Build (and cache) the rule-set pair for ``"oodb"`` or ``"relational"``."""
    if kind in _PAIR_CACHE:
        return _PAIR_CACHE[kind]
    prairie, translation = _translation(kind)
    if kind == "oodb":
        from repro.optimizers.oodb_volcano import build_oodb_volcano as build_hand
    else:
        from repro.optimizers.relational_volcano import (
            build_relational_volcano as build_hand,
        )
    pair = OptimizerPair(
        prairie=prairie, translation=translation, hand_coded=build_hand()
    )
    _PAIR_CACHE[kind] = pair
    return pair


def generated_ruleset(kind: str = "oodb"):
    """The P2V-generated rule set for ``kind`` (cached).

    This is the canonical worker-side rule-set factory for the batch
    optimizer: rule sets hold generated code objects and cannot cross
    process boundaries, so :mod:`repro.parallel` workers rebuild them
    from the spec string ``"repro.bench.harness:generated_ruleset"``.
    It translates the Prairie rule set only; the hand-coded twin is
    built by :func:`build_optimizer_pair`, which shares this rule set.
    """
    return _translation(kind)[1].volcano


def hand_coded_ruleset(kind: str = "oodb"):
    """The hand-coded Volcano rule set for ``kind`` (cached); see
    :func:`generated_ruleset` for why this exists as a named factory."""
    return build_optimizer_pair(kind).hand_coded


def current_git_sha(repo_dir: "str | None" = None) -> str:
    """The checkout's HEAD sha, or ``"unknown"`` outside a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def bench_environment() -> dict:
    """Where a benchmark ran: stamped into benchmark results (e.g.
    ``optbench/run.py``'s) so regressions can be told apart from machine
    changes."""
    import platform
    import sys

    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": current_git_sha(),
    }


@dataclass
class QueryPoint:
    """One data point of a Figure 10–13 curve (averaged over instances)."""

    qid: str
    n_joins: int
    prairie_seconds: float
    volcano_seconds: float
    equivalence_classes: int
    mexprs: int
    best_cost: float
    trans_matched: int
    impl_matched: int
    trans_applicable: int
    impl_applicable: int
    instances: int

    @property
    def overhead_percent(self) -> float:
        """Prairie time relative to hand-coded Volcano, in percent."""
        if self.volcano_seconds == 0:
            return 0.0
        return 100.0 * (self.prairie_seconds / self.volcano_seconds - 1.0)


def _time_one(
    ruleset: VolcanoRuleSet, schema, qid: str, n_joins: int, instance: int
) -> "tuple[float, OptimizationResult]":
    catalog, tree = make_query_instance(schema, qid, n_joins, instance)
    optimizer = VolcanoOptimizer(ruleset, catalog)
    probe_seconds, result = time_callable(lambda: optimizer.optimize(tree), 1)
    repeats = adaptive_repeats(probe_seconds, budget_seconds=0.5)
    if repeats > 1:
        best, result = time_callable(lambda: optimizer.optimize(tree), repeats)
        best = min(best, probe_seconds)
    else:
        best = probe_seconds
    return best, result


def run_query_point(
    pair: OptimizerPair,
    qid: str,
    n_joins: int,
    instances: int,
    metrics=None,
) -> QueryPoint:
    """Average one (query, size) point over cardinality instances.

    Both rule sets see identical catalogs and trees; the differential
    invariants (equal best cost, equal memo statistics) are asserted on
    every instance — a benchmark that silently diverged would be
    reporting on two different optimizers.

    ``metrics`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry`: each timed instance is
    observed into per-provenance latency histograms
    (``bench.prairie_seconds`` / ``bench.volcano_seconds``), the final
    instance's :class:`~repro.volcano.search.SearchStats` are folded in
    under ``search.``, and a ``bench.points`` counter tracks coverage.
    """
    prairie_times: list[float] = []
    volcano_times: list[float] = []
    result = None
    for instance in range(instances):
        p_time, p_result = _time_one(
            pair.generated, pair.schema, qid, n_joins, instance
        )
        v_time, v_result = _time_one(
            pair.hand_coded, pair.schema, qid, n_joins, instance
        )
        if abs(p_result.cost - v_result.cost) > 1e-6 * max(1.0, abs(v_result.cost)):
            raise AssertionError(
                f"{qid} n={n_joins} instance={instance}: generated and "
                f"hand-coded optimizers disagree on best cost "
                f"({p_result.cost} vs {v_result.cost})"
            )
        if p_result.equivalence_classes != v_result.equivalence_classes:
            raise AssertionError(
                f"{qid} n={n_joins} instance={instance}: equivalence class "
                f"counts differ"
            )
        prairie_times.append(p_time)
        volcano_times.append(v_time)
        result = p_result
        if metrics is not None:
            metrics.histogram("bench.prairie_seconds").observe(p_time)
            metrics.histogram("bench.volcano_seconds").observe(v_time)
    assert result is not None
    stats = result.stats
    if metrics is not None:
        metrics.counter("bench.points").inc()
        metrics.record_search_stats(stats)
    return QueryPoint(
        qid=qid,
        n_joins=n_joins,
        prairie_seconds=statistics.mean(prairie_times),
        volcano_seconds=statistics.mean(volcano_times),
        equivalence_classes=result.equivalence_classes,
        mexprs=stats.mexprs,
        best_cost=result.cost,
        trans_matched=len(stats.trans_matched),
        impl_matched=len(stats.impl_matched),
        trans_applicable=len(stats.trans_applicable),
        impl_applicable=len(stats.impl_applicable),
        instances=instances,
    )


def sweep_query(
    pair: OptimizerPair,
    qid: str,
    config: ExperimentConfig,
    min_joins: int = 1,
    metrics=None,
) -> "list[QueryPoint]":
    """One full curve: the query family swept over join counts."""
    from repro.workloads.queries import QUERIES

    template = QUERIES[qid].template
    max_joins = config.max_joins[template]
    return [
        run_query_point(pair, qid, n, config.instances, metrics=metrics)
        for n in range(min_joins, max_joins + 1)
    ]

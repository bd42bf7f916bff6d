"""Pickle round-trip tests: the batch optimizer's IPC contract.

Everything that crosses a process boundary in :mod:`repro.parallel` —
operator trees, catalogs, finished plans, :class:`Winner`,
:class:`SearchStats`, plan-cache entries and snapshots — must survive
serialize→deserialize with costs, fingerprints, and semantics intact.
"""

import pickle

import pytest

from repro.algebra.descriptors import Descriptor
from repro.algebra.properties import DONT_CARE
from repro.bench.harness import build_optimizer_pair
from repro.volcano.explain import explain_plan
from repro.volcano.plancache import (
    CachedPlan,
    MemoSummary,
    PlanCache,
    tree_fingerprint,
)
from repro.volcano.search import (
    SearchOptions,
    SearchStats,
    VolcanoOptimizer,
    Winner,
)
from repro.workloads.queries import make_query_instance


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.fixture(scope="module")
def optimized():
    """One finished Q5 optimization shared by the round-trip tests."""
    pair = build_optimizer_pair("oodb")
    catalog, tree = make_query_instance(pair.schema, "Q5", 2, 0)
    cache = PlanCache()
    optimizer = VolcanoOptimizer(pair.generated, catalog, plan_cache=cache)
    result = optimizer.optimize(tree)
    return pair, catalog, tree, cache, result


class TestScalarPieces:
    def test_dont_care_stays_singleton(self):
        assert roundtrip(DONT_CARE) is DONT_CARE
        assert roundtrip((DONT_CARE, DONT_CARE)) == (DONT_CARE, DONT_CARE)

    def test_descriptor_roundtrip(self, optimized):
        pair, _, tree, _, _ = optimized
        descriptor = tree.descriptor
        clone = roundtrip(descriptor)
        assert clone == descriptor
        assert clone.schema == descriptor.schema
        names = descriptor.schema.names
        assert clone.project(names) == descriptor.project(names)
        # The clone is live: writes validate against the schema.
        clone["num_records"] = 42.0
        assert clone["num_records"] == 42.0

    def test_search_options_roundtrip(self):
        options = SearchOptions(
            disabled_rules=frozenset({"JoinComm"}), max_groups=10
        )
        clone = roundtrip(options)
        assert clone == options
        assert hash(clone) == hash(options)

    def test_search_stats_roundtrip(self, optimized):
        *_, result = optimized
        clone = roundtrip(result.stats)
        assert clone.as_dict() == result.stats.as_dict()
        # Merged clones keep accumulating (sets survived as sets).
        clone.merge(result.stats)
        assert clone.mexprs == 2 * result.stats.mexprs


class TestTreesAndPlans:
    def test_query_tree_fingerprint_survives(self, optimized):
        pair, _, tree, _, _ = optimized
        args = pair.generated.argument_properties
        clone = roundtrip(tree)
        assert tree_fingerprint(clone, args) == tree_fingerprint(tree, args)

    def test_plan_roundtrip_explains_identically(self, optimized):
        *_, result = optimized
        clone = roundtrip(result.plan)
        assert explain_plan(clone) == explain_plan(result.plan)

    def test_roundtripped_tree_reoptimizes_identically(self, optimized):
        pair, catalog, tree, _, result = optimized
        clone_tree = roundtrip(tree)
        clone_catalog = roundtrip(catalog)
        again = VolcanoOptimizer(pair.generated, clone_catalog).optimize(
            clone_tree
        )
        assert again.cost == result.cost
        assert explain_plan(again.plan) == explain_plan(result.plan)

    def test_winner_roundtrip(self, optimized):
        *_, result = optimized
        winner = Winner(
            plan=result.plan,
            cost=result.cost,
            delivered=(DONT_CARE,),
            rule_name="r",
            provenance="p",
            algorithm="a",
        )
        clone = roundtrip(winner)
        assert clone.cost == winner.cost
        assert clone.delivered == winner.delivered
        assert clone.rule_name == "r"
        assert explain_plan(clone.plan) == explain_plan(winner.plan)


class TestCacheEntries:
    def test_cached_plan_roundtrip_validates_by_token(self, optimized):
        _, catalog, _, _, result = optimized
        entry = CachedPlan(
            plan=result.plan,
            cost=result.cost,
            memo=MemoSummary(result.stats.groups, result.stats.mexprs),
            catalog_token=catalog.state_token(),
        )
        clone = roundtrip(entry)
        assert clone.cost == result.cost
        assert clone.memo.group_count == result.stats.groups
        fresh_catalog = roundtrip(catalog)
        assert clone.is_valid(fresh_catalog)

    def test_full_cache_snapshot_roundtrip(self, optimized):
        pair, catalog, tree, cache, result = optimized
        snapshot = roundtrip(cache.snapshot(pair.generated, "tests:oodb"))
        target = PlanCache()
        assert target.merge_snapshot(snapshot, pair.generated) == len(snapshot)
        optimizer = VolcanoOptimizer(
            pair.generated, roundtrip(catalog), plan_cache=target
        )
        warm = optimizer.optimize(roundtrip(tree))
        assert warm.stats.plan_cache_hits == 1
        assert warm.cost == result.cost
        assert explain_plan(warm.plan) == explain_plan(result.plan)

    def test_memo_roundtrip_drops_process_local_hooks(self, optimized):
        *_, result = optimized
        memo = result.memo
        clone = roundtrip(memo)
        assert clone.group_count == memo.group_count
        assert clone.mexpr_count == memo.mexpr_count
        assert clone._emit is None

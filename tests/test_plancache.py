"""Tests for the cross-query plan cache and its engine integration.

Covers the :class:`~repro.volcano.plancache.PlanCache` unit behaviour
(hit/miss counting, LRU eviction, explicit and catalog-token
invalidation), the fingerprint keying, the optimizer's hit/miss
statistics, and the memo's cross-group insertion guard the engine's
duplicate elimination relies on.
"""

import pytest

from repro.algebra.descriptors import Descriptor
from repro.algebra.expressions import StoredFileRef
from repro.algebra.properties import DescriptorSchema, PropertyDef, PropertyType
from repro.catalog.schema import StoredFileInfo
from repro.errors import SearchError
from repro.volcano.memo import Memo, MExpr
from repro.volcano.plancache import (
    CachedPlan,
    MemoSummary,
    PlanCache,
    copy_plan,
    tree_fingerprint,
)
from repro.volcano.search import SearchOptions, VolcanoOptimizer
from repro.workloads.queries import make_query_instance


# ---------------------------------------------------------------------------
# Unit level: a tiny private schema, independent of the bundled optimizers
# ---------------------------------------------------------------------------

SCHEMA = DescriptorSchema(
    [
        PropertyDef("join_predicate", PropertyType.PREDICATE),
        PropertyDef("num_records", PropertyType.FLOAT),
        PropertyDef("cost", PropertyType.COST),
    ]
)
ARGS = ("join_predicate", "num_records")


def d(**values):
    return Descriptor(SCHEMA, values)


def file_plan(name="R1"):
    return StoredFileRef(name, d(num_records=10.0))


# An empty memo: the cache keeps only its summary.
MEMO = Memo(ARGS)


class FakeCatalog:
    """Just enough of the Catalog surface for cache unit tests: a state
    token of its own (unequal to any other object's) that changes when
    the catalog is mutated."""

    def __init__(self):
        self._identity = object()
        self._version = 0

    def state_token(self):
        return (self._identity, self._version)

    def mutate(self):
        self._version += 1


class TestTreeFingerprint:
    def test_same_shape_same_fingerprint(self):
        a = file_plan()
        b = file_plan()
        assert tree_fingerprint(a, ARGS) == tree_fingerprint(b, ARGS)

    def test_file_identified_by_name(self):
        assert tree_fingerprint(file_plan("R1"), ARGS) != tree_fingerprint(
            file_plan("R2"), ARGS
        )

    def test_stored_file_keyed_by_name_alone(self):
        # Matching MExpr.key: a file's descriptor values (outputs of
        # initialization) do not change the query's identity.
        a = StoredFileRef("R1", d(num_records=10.0))
        b = StoredFileRef("R1", d(num_records=20.0))
        assert tree_fingerprint(a, ARGS) == tree_fingerprint(b, ARGS)

    def test_real_queries_distinguished(self, schema, oodb_volcano_generated):
        args = oodb_volcano_generated.argument_properties
        _, q5 = make_query_instance(schema, "Q5", 1, 0)
        _, q5_twin = make_query_instance(schema, "Q5", 1, 0)
        _, q5_deeper = make_query_instance(schema, "Q5", 2, 0)
        assert tree_fingerprint(q5, args) == tree_fingerprint(q5_twin, args)
        assert tree_fingerprint(q5, args) != tree_fingerprint(q5_deeper, args)


class TestPlanCacheUnit:
    def test_miss_then_hit(self):
        cache = PlanCache()
        catalog = FakeCatalog()
        assert cache.lookup(("k",), catalog) is None
        cache.store(("k",), file_plan(), 7.5, memo=MEMO, catalog=catalog)
        entry = cache.lookup(("k",), catalog)
        assert isinstance(entry, CachedPlan)
        assert entry.cost == 7.5
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1

    def test_stored_plan_is_copied(self):
        cache = PlanCache()
        catalog = FakeCatalog()
        plan = file_plan()
        entry = cache.store(("k",), plan, 1.0, memo=MEMO, catalog=catalog)
        assert entry.plan is not plan

    def test_lru_eviction_bound(self):
        cache = PlanCache(max_entries=2)
        catalog = FakeCatalog()
        for name in ("a", "b", "c"):
            cache.store((name,), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert ("a",) not in cache  # oldest evicted
        assert ("b",) in cache and ("c",) in cache

    def test_lookup_refreshes_lru_order(self):
        cache = PlanCache(max_entries=2)
        catalog = FakeCatalog()
        cache.store(("a",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        cache.store(("b",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        cache.lookup(("a",), catalog)  # "a" becomes most recent
        cache.store(("c",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        assert ("a",) in cache
        assert ("b",) not in cache

    def test_catalog_version_invalidates(self):
        cache = PlanCache()
        catalog = FakeCatalog()
        cache.store(("k",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        catalog.mutate()
        assert cache.lookup(("k",), catalog) is None
        assert cache.invalidations == 1
        assert cache.misses == 1
        assert len(cache) == 0  # stale entry dropped on sight

    def test_different_catalog_object_invalidates(self):
        cache = PlanCache()
        cache.store(("k",), file_plan(), 1.0, memo=MEMO, catalog=FakeCatalog())
        assert cache.lookup(("k",), FakeCatalog()) is None
        assert cache.invalidations == 1

    def test_explicit_invalidate_drops_everything(self):
        cache = PlanCache()
        catalog = FakeCatalog()
        cache.store(("a",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        cache.store(("b",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.lookup(("a",), catalog) is None

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_stats_counters(self):
        cache = PlanCache(max_entries=4)
        catalog = FakeCatalog()
        cache.store(("k",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        cache.lookup(("k",), catalog)
        cache.lookup(("missing",), catalog)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 4
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0

    def test_copy_plan_deep(self):
        plan = file_plan()
        clone = copy_plan(plan)
        assert clone is not plan
        assert clone.descriptor is not plan.descriptor
        assert clone.descriptor == plan.descriptor


# ---------------------------------------------------------------------------
# Engine integration: real optimizations against the OODB rule set
# ---------------------------------------------------------------------------


class TestOptimizerIntegration:
    def _build(self, schema, ruleset, qid="Q5", n_joins=1, **kwargs):
        catalog, tree = make_query_instance(schema, qid, n_joins, 0)
        cache = PlanCache()
        optimizer = VolcanoOptimizer(
            ruleset, catalog, plan_cache=cache, **kwargs
        )
        return catalog, tree, cache, optimizer

    def test_cold_then_warm(self, schema, oodb_volcano_generated):
        _, tree, cache, optimizer = self._build(schema, oodb_volcano_generated)
        cold = optimizer.optimize(tree)
        assert cold.stats.plan_cache_misses == 1
        assert cold.stats.plan_cache_hits == 0
        warm = optimizer.optimize(tree)
        assert warm.stats.plan_cache_hits == 1
        assert warm.stats.plan_cache_misses == 0
        assert warm.cost == cold.cost
        assert cache.stats()["hits"] == 1

    def test_structurally_identical_tree_hits(
        self, schema, oodb_volcano_generated
    ):
        catalog, tree, cache, optimizer = self._build(
            schema, oodb_volcano_generated
        )
        optimizer.optimize(tree)
        # A *fresh* build of the same query instance: different objects,
        # same canonical fingerprint.
        _, twin = make_query_instance(schema, "Q5", 1, 0)
        result = optimizer.optimize(twin)
        assert result.stats.plan_cache_hits == 1

    def test_hit_returns_private_copy(self, schema, oodb_volcano_generated):
        _, tree, _, optimizer = self._build(schema, oodb_volcano_generated)
        optimizer.optimize(tree)
        first = optimizer.optimize(tree)
        second = optimizer.optimize(tree)
        assert first.plan is not second.plan
        # Maul the first hit's plan in place; the cache (and hence later
        # hits) must be unaffected.
        prop = next(iter(first.plan.descriptor._values))
        first.plan.descriptor._values[prop] = "MAULED"
        third = optimizer.optimize(tree)
        assert third.plan.descriptor._values[prop] != "MAULED"

    def test_catalog_mutation_invalidates(
        self, schema, oodb_volcano_generated
    ):
        catalog, tree, cache, optimizer = self._build(
            schema, oodb_volcano_generated
        )
        optimizer.optimize(tree)
        catalog.add(StoredFileInfo("ZZZ_new", ("z1", "z2"), 10, 50))
        result = optimizer.optimize(tree)
        assert result.stats.plan_cache_misses == 1
        assert result.stats.plan_cache_hits == 0
        assert cache.invalidations == 1
        # And the re-optimization repopulated the cache.
        assert optimizer.optimize(tree).stats.plan_cache_hits == 1

    def test_options_participate_in_key(self, schema, oodb_volcano_generated):
        catalog, tree = make_query_instance(schema, "Q5", 1, 0)
        cache = PlanCache()
        plain = VolcanoOptimizer(
            oodb_volcano_generated, catalog, plan_cache=cache
        )
        plain.optimize(tree)
        budgeted = VolcanoOptimizer(
            oodb_volcano_generated,
            catalog,
            options=SearchOptions(max_groups=500),
            plan_cache=cache,
        )
        result = budgeted.optimize(tree)
        assert result.stats.plan_cache_misses == 1  # different options key
        assert len(cache) == 2

    def test_required_vector_participates_in_key(
        self, schema, oodb_volcano_generated
    ):
        from repro.volcano.properties import dont_care_vector

        catalog, tree = make_query_instance(schema, "Q5", 1, 0)
        cache = PlanCache()
        optimizer = VolcanoOptimizer(
            oodb_volcano_generated, catalog, plan_cache=cache
        )
        optimizer.optimize(tree)
        phys = oodb_volcano_generated.physical_properties
        result = optimizer.optimize(tree, dont_care_vector(phys))
        # Explicit don't-care equals the default requirement: same key.
        assert result.stats.plan_cache_hits == 1

    def test_cache_events_traced(self, schema, oodb_volcano_generated):
        """Cold miss, store, and warm hit all show up in the trace."""
        from repro.obs import CollectingTracer

        catalog, tree = make_query_instance(schema, "Q5", 1, 0)
        tracer = CollectingTracer()
        optimizer = VolcanoOptimizer(
            oodb_volcano_generated,
            catalog,
            plan_cache=PlanCache(),
            tracer=tracer,
        )
        cold = optimizer.optimize(tree)
        cold_types = [e.type for e in tracer.events]
        assert "plan_cache_miss" in cold_types
        assert "plan_cache_store" in cold_types
        assert "plan_cache_hit" not in cold_types
        miss = next(e for e in tracer.events if e.type == "plan_cache_miss")
        assert miss.data["reason"] == "absent"

        tracer.clear()
        warm = optimizer.optimize(tree)
        warm_types = [e.type for e in tracer.events]
        assert "plan_cache_hit" in warm_types
        assert "plan_cache_miss" not in warm_types
        hit = next(e for e in tracer.events if e.type == "plan_cache_hit")
        assert hit.data["cost"] == pytest.approx(cold.cost)
        # A hit short-circuits the search: the trace ends immediately.
        assert warm_types[-1] == "optimize_end"
        assert tracer.events[-1].data["from_cache"] is True
        assert warm.cost == cold.cost

    def test_stale_and_evict_events_traced(
        self, schema, oodb_volcano_generated
    ):
        from repro.obs import CollectingTracer

        catalog, tree = make_query_instance(schema, "Q5", 1, 0)
        tracer = CollectingTracer()
        optimizer = VolcanoOptimizer(
            oodb_volcano_generated,
            catalog,
            plan_cache=PlanCache(max_entries=1),
            tracer=tracer,
        )
        optimizer.optimize(tree)
        catalog.add(StoredFileInfo("ZZZ_new", ("z1", "z2"), 10, 50))
        tracer.clear()
        optimizer.optimize(tree)
        miss = next(e for e in tracer.events if e.type == "plan_cache_miss")
        assert miss.data["reason"] == "stale"

    def test_evict_event_emitted(self):
        cache = PlanCache(max_entries=1)
        catalog = FakeCatalog()
        events = []

        def emit(etype, **data):
            events.append((etype, data))

        cache.store(("a",), file_plan(), 1.0, memo=MEMO, catalog=catalog, emit=emit)
        cache.store(("b",), file_plan(), 2.0, memo=MEMO, catalog=catalog, emit=emit)
        types = [etype for etype, _ in events]
        assert types == ["plan_cache_store", "plan_cache_store", "plan_cache_evict"]
        evict = events[-1][1]
        assert evict["entries"] == 1


# ---------------------------------------------------------------------------
# The memo's cross-group guard (what the engine's fast path opts out of)
# ---------------------------------------------------------------------------


class TestCrossGroupInsert:
    def _two_groups(self):
        memo = Memo(ARGS)
        leaf = memo.add_file(StoredFileRef("R1", d()))
        a = memo.insert(MExpr("RET", (leaf.group_id,), d(num_records=1.0)))[0]
        b = memo.insert(MExpr("RET", (leaf.group_id,), d(num_records=2.0)))[0]
        assert a.group_id != b.group_id
        return memo, a, b

    def test_duplicate_in_other_group_raises(self):
        memo, a, b = self._two_groups()
        duplicate = MExpr("RET", a.inputs, d(num_records=1.0))
        with pytest.raises(SearchError):
            memo.insert(duplicate, group_id=b.group_id)

    def test_opt_in_returns_foreign_canonical(self):
        memo, a, b = self._two_groups()
        duplicate = MExpr("RET", a.inputs, d(num_records=1.0))
        canonical, created = memo.insert(
            duplicate, group_id=b.group_id, allow_cross_group=True
        )
        assert not created
        assert canonical is a
        assert canonical.group_id == a.group_id  # never moved

    def test_same_group_duplicate_needs_no_opt_in(self):
        memo, a, _ = self._two_groups()
        duplicate = MExpr("RET", a.inputs, d(num_records=1.0))
        canonical, created = memo.insert(duplicate, group_id=a.group_id)
        assert not created
        assert canonical is a


# ---------------------------------------------------------------------------
# SearchOptions budgets
# ---------------------------------------------------------------------------


class TestSearchOptionBudgets:
    def test_max_mexprs_caps_derivation(self, schema, oodb_volcano_generated):
        catalog, tree = make_query_instance(schema, "Q5", 2, 0)
        free = VolcanoOptimizer(oodb_volcano_generated, catalog).optimize(tree)
        capped = VolcanoOptimizer(
            oodb_volcano_generated,
            catalog,
            options=SearchOptions(max_mexprs=30),
        ).optimize(tree)
        assert capped.stats.mexprs < free.stats.mexprs
        assert capped.cost >= free.cost  # pruning never finds better plans

    def test_max_groups_caps_derivation(self, schema, oodb_volcano_generated):
        catalog, tree = make_query_instance(schema, "Q5", 2, 0)
        free = VolcanoOptimizer(oodb_volcano_generated, catalog).optimize(tree)
        capped = VolcanoOptimizer(
            oodb_volcano_generated,
            catalog,
            options=SearchOptions(max_groups=12),
        ).optimize(tree)
        assert capped.stats.groups < free.stats.groups

    def test_budget_cutoff_is_pinned(self, schema, oodb_volcano_generated):
        """A budget cuts exploration off at a point fixed by the rule
        firing order, so the budgeted outcome is pinned exactly: any
        change to that order shows up here."""
        from repro.volcano.explain import explain

        catalog, tree = make_query_instance(schema, "Q5", 2, 0)
        result = VolcanoOptimizer(
            oodb_volcano_generated,
            catalog,
            options=SearchOptions(max_mexprs=40),
        ).optimize(tree)
        assert result.cost == 209.14132248
        assert result.stats.mexprs == 45
        assert explain(result, verbose=False) == """\
-> Filter  (rows≈0, cost=209.14)  [filter: a1 = 1]
  -> Hash_join  (rows≈2, cost=209.13)  [join on: b1 = b2]
    -> File_scan  (rows≈2824, cost=34.47)
      -> C1 (stored file)
    -> Hash_join  (rows≈0, cost=146.41)  [join on: b2 = b3]
      -> File_scan  (rows≈10, cost=56.48)  [filter: a3 = 3]
        -> C3 (stored file)
      -> Filter  (rows≈10, cost=89.63)  [filter: a2 = 2]
        -> File_scan  (rows≈4036, cost=49.27)
          -> C2 (stored file)

total estimated cost: 209.14"""

    def test_stats_dict_reports_cache_counters(
        self, schema, oodb_volcano_generated
    ):
        catalog, tree = make_query_instance(schema, "Q5", 1, 0)
        optimizer = VolcanoOptimizer(
            oodb_volcano_generated, catalog, plan_cache=PlanCache()
        )
        stats = optimizer.optimize(tree).stats.as_dict()
        for key in ("winners_cached", "plan_cache_hits", "plan_cache_misses"):
            assert key in stats
        assert stats["plan_cache_misses"] == 1


# ---------------------------------------------------------------------------
# LRU eviction order, thread safety, snapshot/merge (batch-optimizer surface)
# ---------------------------------------------------------------------------


def small_catalog(cardinality=100):
    from repro.catalog.schema import Catalog

    return Catalog(
        [
            StoredFileInfo("R1", ("a1", "b1"), cardinality),
            StoredFileInfo("R2", ("a2", "b2"), cardinality * 2),
        ]
    )


class TestLRUEvictionOrder:
    def test_eviction_follows_recency_exactly(self):
        """Evictions happen strictly in least-recently-*used* order:
        lookups refresh recency, stores of new keys evict the coldest."""
        cache = PlanCache(max_entries=3)
        catalog = FakeCatalog()
        for name in ("a", "b", "c"):
            cache.store((name,), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        # Recency (coldest first): a, b, c.  Touch a then b.
        cache.lookup(("a",), catalog)   # -> b, c, a
        cache.lookup(("b",), catalog)   # -> c, a, b
        cache.store(("d",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        # d evicts the coldest, c               -> a, b, d
        assert ("c",) not in cache
        assert all(key in cache for key in (("a",), ("b",), ("d",)))
        # Re-storing an existing key refreshes it without eviction.
        cache.store(("a",), file_plan(), 2.0, memo=MEMO, catalog=catalog)
        assert len(cache) == 3          # -> b, d, a
        cache.store(("e",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        # e evicts the coldest, b              -> d, a, e
        assert ("b",) not in cache
        assert all(key in cache for key in (("d",), ("a",), ("e",)))

    def test_eviction_order_deterministic_sequence(self):
        cache = PlanCache(max_entries=2)
        catalog = FakeCatalog()
        cache.store(("x",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        cache.store(("y",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        cache.store(("x",), file_plan(), 3.0, memo=MEMO, catalog=catalog)
        cache.store(("z",), file_plan(), 1.0, memo=MEMO, catalog=catalog)
        # x was refreshed by its second store, so y was evicted.
        assert ("y",) not in cache
        assert ("x",) in cache and ("z",) in cache
        assert cache.lookup(("x",), catalog).cost == 3.0


class TestThreadSafety:
    def test_concurrent_store_lookup_evict(self):
        """Hammer one bounded cache from many threads; the cache must
        stay internally consistent (no lost updates, no KeyErrors from
        racing eviction) and every counter must add up."""
        import threading

        cache = PlanCache(max_entries=16)
        catalog = FakeCatalog()
        errors = []

        def worker(worker_id):
            try:
                for i in range(200):
                    key = (worker_id % 4, i % 24)
                    entry = cache.lookup(key, catalog)
                    if entry is None:
                        cache.store(
                            key, file_plan(), float(i), memo=MEMO,
                            catalog=catalog,
                        )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 200


class TestSnapshotMerge:
    def _store_real_entry(self, cache, ruleset, options=None):
        from repro.bench.harness import build_optimizer_pair

        pair = build_optimizer_pair("oodb")
        catalog, tree = make_query_instance(pair.schema, "Q5", 1, 0)
        optimizer = VolcanoOptimizer(
            ruleset, catalog, plan_cache=cache,
            options=options or SearchOptions(),
        )
        result = optimizer.optimize(tree)
        return catalog, tree, result

    def test_snapshot_round_trips_through_pickle(self, oodb_volcano_generated):
        import pickle

        cache = PlanCache()
        catalog, tree, result = self._store_real_entry(
            cache, oodb_volcano_generated
        )
        snap = cache.snapshot(oodb_volcano_generated, "tests:oodb")
        assert len(snap) == 1
        restored = pickle.loads(pickle.dumps(snap))
        fresh = PlanCache()
        assert fresh.merge_snapshot(restored, oodb_volcano_generated) == 1
        assert fresh.stats()["merged_in"] == 1
        key = PlanCache.key_for(
            oodb_volcano_generated, SearchOptions(), tree,
            next(iter(fresh._entries))[2],
        )
        entry = fresh.lookup(key, catalog)
        assert entry is not None, "merged entry must validate by token"
        assert entry.cost == result.cost

    def test_merged_entry_drives_cache_hit_in_engine(
        self, oodb_volcano_generated
    ):
        import pickle

        from repro.bench.harness import build_optimizer_pair

        source = PlanCache()
        catalog, tree, result = self._store_real_entry(
            source, oodb_volcano_generated
        )
        snap = pickle.loads(
            pickle.dumps(source.snapshot(oodb_volcano_generated, "tests:oodb"))
        )
        target = PlanCache()
        target.merge_snapshot(snap, oodb_volcano_generated)
        pair = build_optimizer_pair("oodb")
        catalog2, tree2 = make_query_instance(pair.schema, "Q5", 1, 0)
        optimizer = VolcanoOptimizer(
            oodb_volcano_generated, catalog2, plan_cache=target
        )
        warm = optimizer.optimize(tree2)
        assert warm.stats.plan_cache_hits == 1
        assert warm.cost == result.cost

    def test_snapshot_skips_other_rulesets(self, oodb_volcano_generated):
        cache = PlanCache()
        # ("k",) does not start with id(oodb_volcano_generated).
        cache.store(("k",), file_plan(), 1.0, memo=MEMO, catalog=FakeCatalog())
        snap = cache.snapshot(oodb_volcano_generated, "tests:oodb")
        assert len(snap) == 0

    def test_snapshot_leaves_out_held_keys(self, oodb_volcano_generated):
        cache = PlanCache()
        self._store_real_entry(cache, oodb_volcano_generated)
        self._store_real_entry(
            cache, oodb_volcano_generated, SearchOptions(max_groups=500)
        )
        full = cache.snapshot(oodb_volcano_generated, "tests:oodb")
        assert len(full) == 2
        held = {full.entries[0][0]}
        delta = cache.snapshot(oodb_volcano_generated, "tests:oodb", held)
        assert delta.entries == full.entries[1:]
        assert not cache.snapshot(
            oodb_volcano_generated, "tests:oodb", full.keys()
        ).entries

    def test_merge_prefers_local_entries(self, oodb_volcano_generated):
        cache = PlanCache()
        catalog, tree, result = self._store_real_entry(
            cache, oodb_volcano_generated
        )
        snap = cache.snapshot(oodb_volcano_generated, "tests:oodb")
        # Merging a snapshot of itself adopts nothing: keys collide.
        assert cache.merge_snapshot(snap, oodb_volcano_generated) == 0

    def test_catalog_state_token_is_structural(self):
        import pickle

        catalog = small_catalog()
        copy = pickle.loads(pickle.dumps(catalog))
        assert catalog is not copy
        assert catalog.state_token() == copy.state_token()
        other = small_catalog(cardinality=999)
        assert catalog.state_token() != other.state_token()

    def test_cache_survives_pickle(self):
        import pickle

        cache = PlanCache(max_entries=7)
        cache.store(
            ("k",), file_plan(), 2.5, memo=MEMO, catalog=small_catalog()
        )
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.max_entries == 7
        assert len(clone) == 1
        # The lock is rebuilt, not copied.
        clone.invalidate()


# ---------------------------------------------------------------------------
# Hits carry a memo summary, whichever process stored the entry
# ---------------------------------------------------------------------------


class TestHitsCarrySummaries:
    FACTORY = "repro.bench.harness:generated_ruleset"

    def _instance(self, qid="Q5", n_joins=1):
        from repro.bench.harness import build_optimizer_pair

        pair = build_optimizer_pair("oodb")
        catalog, tree = make_query_instance(pair.schema, qid, n_joins, 0)
        return pair.generated, catalog, tree

    def _hit(self, ruleset, cache, qid="Q5", n_joins=1):
        _, catalog, tree = self._instance(qid, n_joins)
        result = VolcanoOptimizer(ruleset, catalog, plan_cache=cache).optimize(
            tree
        )
        assert result.stats.plan_cache_hits == 1
        return result

    def _assert_summary(self, hit, cold_stats):
        assert isinstance(hit.memo, MemoSummary)
        assert hit.memo.group_count == cold_stats.groups
        assert hit.memo.mexpr_count == cold_stats.mexprs

    def _merged_from_pickle(self):
        import pickle

        ruleset, catalog, tree = self._instance()
        source = PlanCache()
        cold = VolcanoOptimizer(ruleset, catalog, plan_cache=source).optimize(
            tree
        )
        target = PlanCache()
        target.merge_snapshot(
            pickle.loads(pickle.dumps(source.snapshot(ruleset, "tests:oodb"))),
            ruleset,
        )
        return ruleset, target, cold

    def test_local_entry(self):
        ruleset, catalog, tree = self._instance()
        cache = PlanCache()
        optimizer = VolcanoOptimizer(ruleset, catalog, plan_cache=cache)
        cold = optimizer.optimize(tree)
        assert isinstance(cold.memo, Memo)  # a miss returns the full memo
        self._assert_summary(self._hit(ruleset, cache), cold.stats)

    def test_entry_merged_from_pickled_snapshot(self):
        ruleset, cache, cold = self._merged_from_pickle()
        self._assert_summary(self._hit(ruleset, cache), cold.stats)

    def test_entry_stored_by_process_worker(self):
        from repro.parallel import BatchItem, BatchOptimizer

        _, catalog, tree = self._instance()
        with BatchOptimizer(
            self.FACTORY, ("oodb",), mode="process", workers=1
        ) as batch:
            report = batch.run([BatchItem(tree=tree, catalog=catalog)])
        assert report.merged_entries == 1
        cold_stats = report.results[0].stats
        assert cold_stats.plan_cache_misses == 1
        self._assert_summary(self._hit(batch.ruleset, batch.cache), cold_stats)

    def test_explain_memo_on_a_hit_says_memo_not_retained(self):
        from repro.volcano.explain import explain_memo

        ruleset, cache, cold = self._merged_from_pickle()
        expected = (
            f"memo not retained (plan-cache hit): {cold.stats.groups} "
            f"equivalence classes, {cold.stats.mexprs} m-exprs"
        )
        assert explain_memo(self._hit(ruleset, cache)) == expected
        ruleset, catalog, tree = self._instance()
        local = PlanCache()
        VolcanoOptimizer(ruleset, catalog, plan_cache=local).optimize(tree)
        assert explain_memo(self._hit(ruleset, local)) == expected

"""Tests for hash-consing of descriptors and operator trees.

Covers :mod:`repro.algebra.interning` at the unit level (canonical
descriptors, value-slot sharing, interned tree identity, memoized
fingerprints, pickle re-interning) and at the engine level: interning
must measurably shrink the memo's retained object count with **zero**
change to plans or costs.
"""

import pickle

import pytest

from repro.algebra.descriptors import Descriptor
from repro.algebra.interning import (
    DescriptorInterner,
    InternedLeaf,
    InternedNode,
    TreeInterner,
    clear_intern_tables,
    fingerprint_computes,
    intern_tree,
    thaw_tree,
)
from repro.algebra.properties import DescriptorSchema, PropertyDef, PropertyType
from repro.bench.harness import build_optimizer_pair
from repro.volcano.plancache import tree_fingerprint
from repro.volcano.search import VolcanoOptimizer
from repro.workloads.queries import make_query_instance

SCHEMA = DescriptorSchema(
    [
        PropertyDef("join_predicate", PropertyType.PREDICATE),
        PropertyDef("attributes", PropertyType.ATTRS),
        PropertyDef("num_records", PropertyType.FLOAT),
    ]
)
ARGS = ("join_predicate", "attributes")


def d(**values):
    return Descriptor(SCHEMA, values)


@pytest.fixture(autouse=True)
def _fresh_global_table():
    clear_intern_tables()
    yield
    clear_intern_tables()


class TestDescriptorInterner:
    def test_equal_descriptors_share_one_canonical(self):
        interner = DescriptorInterner(SCHEMA)
        first = d(num_records=10.0)
        second = d(num_records=10.0)
        assert interner.canonical(first) is first
        assert interner.canonical(second) is first
        assert interner.hits == 1 and interner.inserts == 1

    def test_distinct_values_stay_distinct(self):
        interner = DescriptorInterner(SCHEMA)
        first = interner.canonical(d(num_records=1.0))
        second = interner.canonical(d(num_records=2.0))
        assert first is not second
        assert len(interner) == 2

    def test_list_vs_tuple_not_conflated(self):
        interner = DescriptorInterner(SCHEMA)
        as_list = d(attributes=["a", "b"])
        as_tuple = d(attributes=("a", "b"))
        assert interner.canonical(as_list) is as_list
        # Equal frozen projection, different raw value types: rejected.
        assert interner.canonical(as_tuple) is as_tuple
        assert interner.rejects == 1

    def test_table_bound_respected(self):
        interner = DescriptorInterner(SCHEMA, max_entries=1)
        interner.canonical(d(num_records=1.0))
        overflow = d(num_records=2.0)
        assert interner.canonical(overflow) is overflow
        assert len(interner) == 1 and interner.rejects == 1

    def test_value_slots_collapse_to_canonical_objects(self):
        """Two descriptors with different value *sets* still share the
        value objects they have in common — the hash-consing level where
        the real memo redundancy lives."""
        interner = DescriptorInterner(SCHEMA)
        first = d(attributes=["a", "b"], num_records=1.0)
        second = d(attributes=["a", "b"], num_records=2.0)
        interner.canonical(first)
        interner.canonical(second)
        assert second["attributes"] is first["attributes"]
        assert interner.values_shared >= 1

    def test_value_rewiring_preserves_equality_and_projection(self):
        interner = DescriptorInterner(SCHEMA)
        first = d(attributes=["a"], num_records=1.0)
        second = d(attributes=["a"], num_records=2.0)
        before = second.project(SCHEMA.names)
        interner.canonical(first)
        interner.canonical(second)
        assert second.project(SCHEMA.names) == before
        assert second["attributes"] == ["a"]


class TestTreeInterning:
    def _tree(self, pair, qname="Q5", joins=2):
        catalog, tree = make_query_instance(pair.schema, qname, joins, 0)
        return catalog, tree

    def test_equal_trees_intern_to_same_object(self):
        pair = build_optimizer_pair("oodb")
        _, tree_a = self._tree(pair)
        _, tree_b = self._tree(pair)
        assert intern_tree(tree_a) is intern_tree(tree_b)

    def test_interned_fingerprint_matches_plain_fingerprint(self):
        pair = build_optimizer_pair("oodb")
        _, tree = self._tree(pair)
        args = pair.generated.argument_properties
        assert tree_fingerprint(
            intern_tree(tree), args
        ) == tree_fingerprint(tree, args)

    def test_fingerprint_memoized_on_revisit(self):
        """Re-fingerprinting an interned tree is O(1): zero fresh
        computations, however large the shared subtree."""
        pair = build_optimizer_pair("oodb")
        _, tree = self._tree(pair, joins=3)
        args = pair.generated.argument_properties
        interned = intern_tree(tree)
        interned.fingerprint(args)
        before = fingerprint_computes()
        for _ in range(10):
            interned.fingerprint(args)
        assert fingerprint_computes() == before

    def test_shared_subtree_fingerprints_once(self):
        """Two trees sharing an interned subtree pay for it once: the
        second tree's fingerprint only computes its unshared spine."""
        pair = build_optimizer_pair("oodb")
        _, small = self._tree(pair, joins=2)
        _, large = self._tree(pair, joins=3)
        args = pair.generated.argument_properties
        interned_small = intern_tree(small)
        interned_large = intern_tree(large)
        interned_small.fingerprint(args)
        baseline = fingerprint_computes()
        interned_large.fingerprint(args)
        spine_cost = fingerprint_computes() - baseline
        # The large tree contains the small one as a subtree wherever
        # structure repeats; at minimum the memoized nodes are not
        # recomputed, so the spine cost is below the full node count.
        def count_nodes(node):
            if isinstance(node, InternedLeaf):
                return 1
            return 1 + sum(count_nodes(child) for child in node.inputs)

        assert spine_cost < count_nodes(interned_large) or spine_cost == 0

    def test_unpickle_reconstructs_into_intern_table(self):
        pair = build_optimizer_pair("oodb")
        _, tree = self._tree(pair)
        interned = intern_tree(tree)
        clone = pickle.loads(pickle.dumps(interned))
        assert clone is interned

    def test_unpickle_into_fresh_process_table_is_self_consistent(self):
        pair = build_optimizer_pair("oodb")
        _, tree = self._tree(pair)
        interned = intern_tree(tree)
        payload = pickle.dumps(interned)
        clear_intern_tables()  # simulate a different process
        clone_a = pickle.loads(payload)
        clone_b = pickle.loads(payload)
        assert clone_a is clone_b
        args = pair.generated.argument_properties
        assert tree_fingerprint(clone_a, args) == tree_fingerprint(tree, args)

    def test_thawed_tree_is_mutable_and_equivalent(self):
        pair = build_optimizer_pair("oodb")
        catalog, tree = self._tree(pair)
        thawed = thaw_tree(intern_tree(tree))
        args = pair.generated.argument_properties
        assert tree_fingerprint(thawed, args) == tree_fingerprint(tree, args)
        # Thawed descriptors are private copies: writing one must not
        # touch the interned canonical.
        thawed.descriptor["num_records"] = 123.0
        assert intern_tree(tree).descriptor["num_records"] != 123.0

    def test_private_table_isolated_from_global(self):
        pair = build_optimizer_pair("oodb")
        _, tree = self._tree(pair)
        private = TreeInterner()
        node = intern_tree(tree, private)
        assert intern_tree(tree) is not node
        assert private.stats()["nodes"] > 0


class TestEngineIntegration:
    # (cost, memo_descriptor_objects) of the same searches by the engine
    # with descriptor interning switched off, measured in a fresh process
    # before interning became unconditional.  Interning must reproduce
    # the cost exactly (test_search_golden pins the plans) while keeping
    # strictly fewer descriptor objects in the memo.
    UNINTERNED = {"Q5": (140.62639178000003, 301), "Q7": (140.64242651, 3547)}

    @pytest.mark.parametrize("qname,joins", [("Q5", 2), ("Q7", 2)])
    def test_interning_changes_nothing_and_shrinks_memo(self, qname, joins):
        pair = build_optimizer_pair("oodb")
        catalog, tree = make_query_instance(pair.schema, qname, joins, 0)
        result = VolcanoOptimizer(pair.generated, catalog).optimize(tree)
        uninterned_cost, uninterned_objects = self.UNINTERNED[qname]
        assert result.cost == uninterned_cost
        assert result.stats.memo_descriptor_objects < uninterned_objects
        assert result.stats.descriptor_values_shared > 0

    def test_interning_counters_surface_via_metrics(self):
        from repro.obs import MetricsRegistry

        pair = build_optimizer_pair("oodb")
        catalog, tree = make_query_instance(pair.schema, "Q5", 2, 0)
        result = VolcanoOptimizer(pair.generated, catalog).optimize(tree)
        registry = MetricsRegistry()
        registry.record_search_stats(result.stats)
        counters = registry.counters()
        assert counters["search.descriptor_values_shared"] > 0
        assert counters["search.memo_descriptor_objects"] > 0

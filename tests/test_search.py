"""Unit/behaviour tests for the top-down search engine."""

import dataclasses

import pytest

from repro.algebra.expressions import Expression, StoredFileRef, is_access_plan, walk
from repro.algebra.properties import DONT_CARE
from repro.catalog.predicates import equals_attr, equals_const
from repro.errors import NoPlanFoundError, SearchError
from repro.volcano.properties import (
    dont_care_vector,
    format_vector,
    is_trivial,
    satisfies,
)
from repro.volcano.search import SearchStats, VolcanoOptimizer
from repro.workloads.expressions import build_e1


@pytest.fixture()
def e1_setup(schema):
    """(catalog, builder) over experiment classes C1..C3 for E1 trees."""
    from repro.workloads.catalogs import make_experiment_catalog
    from repro.workloads.trees import TreeBuilder

    catalog = make_experiment_catalog(3, with_targets=False, instance=0)
    return catalog, TreeBuilder(schema, catalog)


class TestPropertyVectors:
    def test_dont_care_vector(self):
        assert dont_care_vector(("a", "b")) == (DONT_CARE, DONT_CARE)

    def test_satisfies_wildcard(self):
        assert satisfies(("x",), (DONT_CARE,))

    def test_satisfies_exact(self):
        assert satisfies(("x",), ("x",))
        assert not satisfies(("x",), ("y",))

    def test_satisfies_dont_care_delivery_fails_requirement(self):
        assert not satisfies((DONT_CARE,), ("x",))

    def test_is_trivial(self):
        assert is_trivial((DONT_CARE, DONT_CARE))
        assert not is_trivial((DONT_CARE, "x"))

    def test_format_vector(self):
        assert format_vector(("o",), (DONT_CARE,)) == "{any}"
        assert "o='x'" in format_vector(("o",), ("x",))


class TestBasicOptimization:
    def optimize(self, ruleset, catalog, tree, required=None):
        return VolcanoOptimizer(ruleset, catalog).optimize(tree, required)

    def test_single_scan(self, relational_volcano_generated, rel_catalog, rel_builder):
        result = self.optimize(
            relational_volcano_generated, rel_catalog, rel_builder.ret("R3")
        )
        assert result.plan.op.name == "File_scan"
        assert result.cost > 0

    def test_result_is_access_plan(
        self, relational_volcano_generated, rel_catalog, rel_builder
    ):
        tree = rel_builder.join(
            rel_builder.ret("R1"), rel_builder.ret("R2"), equals_attr("b1", "b2")
        )
        result = self.optimize(relational_volcano_generated, rel_catalog, tree)
        assert is_access_plan(result.plan)

    def test_index_scan_chosen_when_selective(
        self, relational_volcano_generated, rel_catalog, rel_builder
    ):
        tree = rel_builder.ret("R1", equals_const("a1", 3))
        result = self.optimize(relational_volcano_generated, rel_catalog, tree)
        # index probe (3 + 10 fetches) beats a 13-page scan
        assert result.plan.op.name == "Index_scan"

    def test_file_scan_chosen_without_index(
        self, relational_volcano_generated, rel_catalog, rel_builder
    ):
        tree = rel_builder.ret("R3", equals_const("a3", 3))
        result = self.optimize(relational_volcano_generated, rel_catalog, tree)
        assert result.plan.op.name == "File_scan"

    def test_cost_is_minimal_over_alternatives(
        self, relational_volcano_generated, e1_setup
    ):
        # optimizing twice yields the same cost (deterministic optimum)
        catalog, builder = e1_setup
        tree = build_e1(builder, 2)
        a = self.optimize(relational_volcano_generated, catalog, tree)
        b = self.optimize(relational_volcano_generated, catalog, tree)
        assert a.cost == b.cost


class TestRequiredProperties:
    def test_root_order_requirement_satisfied(
        self, relational_volcano_generated, rel_catalog, rel_builder
    ):
        tree = rel_builder.ret("R3")
        result = VolcanoOptimizer(
            relational_volcano_generated, rel_catalog
        ).optimize(tree, required=("a3",))
        # Only the sort enforcer can deliver a3-order on an unindexed file.
        assert result.plan.op.name == "Merge_sort"
        assert result.plan.descriptor["tuple_order"] == "a3"

    def test_order_requirement_via_index(
        self, relational_volcano_generated, rel_catalog, rel_builder
    ):
        tree = rel_builder.ret("R1", equals_const("a1", 3))
        result = VolcanoOptimizer(
            relational_volcano_generated, rel_catalog
        ).optimize(tree, required=("a1",))
        # Index_scan already delivers a1-order; no sort on top.
        assert result.plan.op.name == "Index_scan"

    def test_requirement_costs_more(
        self, relational_volcano_generated, rel_catalog, rel_builder
    ):
        optimizer = VolcanoOptimizer(relational_volcano_generated, rel_catalog)
        free = optimizer.optimize(rel_builder.ret("R3"))
        sorted_result = optimizer.optimize(rel_builder.ret("R3"), required=("a3",))
        assert sorted_result.cost > free.cost

    def test_unsatisfiable_requirement(
        self, relational_volcano_generated, rel_catalog, rel_builder
    ):
        tree = rel_builder.ret("R3")
        with pytest.raises(NoPlanFoundError):
            # 'zz' is not an attribute of the stream: the sort enforcer's
            # guard rejects it and nothing else can deliver it.
            VolcanoOptimizer(relational_volcano_generated, rel_catalog).optimize(
                tree, required=("zz",)
            )

    def test_non_relaxing_enforcer_is_refused(self, rel_catalog, rel_builder):
        """An enforcer that passes the request down unchanged asks for the
        request being answered; the engine refuses it as a cycle, so the
        enforcer is rejected with no_input_plan and nothing recurses."""
        from repro.obs.tracer import CollectingTracer
        from repro.optimizers.relational_volcano import build_relational_volcano

        ruleset = build_relational_volcano()
        (enforcer,) = ruleset.enforcers
        ruleset.enforcers[0] = dataclasses.replace(
            enforcer,
            get_input_pv=lambda env, index: (env.descriptors["D2"]["tuple_order"],),
        )
        tracer = CollectingTracer()
        with pytest.raises(NoPlanFoundError):
            VolcanoOptimizer(ruleset, rel_catalog, tracer=tracer).optimize(
                rel_builder.ret("R3"), required=("a3",)
            )
        rejected = [
            event.data["reason"]
            for event in tracer.events
            if event.type == "enforcer_rejected"
        ]
        assert rejected == ["no_input_plan"]
        ordered_requests = [
            event for event in tracer.events
            if event.type == "optimize_group_begin"
            and event.data["required"] == ("a3",)
        ]
        assert len(ordered_requests) == 1

    def test_wrong_vector_length_rejected(
        self, relational_volcano_generated, rel_catalog, rel_builder
    ):
        with pytest.raises(SearchError):
            VolcanoOptimizer(relational_volcano_generated, rel_catalog).optimize(
                rel_builder.ret("R3"), required=("a3", "extra")
            )


class TestSearchSpace:
    def test_join_order_alternatives_explored(
        self, relational_volcano_generated, e1_setup
    ):
        catalog, builder = e1_setup
        tree = build_e1(builder, 2)
        result = VolcanoOptimizer(relational_volcano_generated, catalog).optimize(
            tree
        )
        # 3 files + 3 RETs + {12}, {23}, {123}: 9 classes ({13} is a
        # cross product, pruned by the associativity test)
        assert result.equivalence_classes == 9

    def test_stats_counters_populated(
        self, relational_volcano_generated, e1_setup
    ):
        catalog, builder = e1_setup
        tree = build_e1(builder, 2)
        result = VolcanoOptimizer(relational_volcano_generated, catalog).optimize(
            tree
        )
        stats = result.stats.as_dict()
        assert stats["trans_rules_matched"] == 2
        assert stats["impl_rules_matched"] >= 2
        assert stats["trans_fired"] > 0
        assert stats["impl_succeeded"] > 0
        assert stats["elapsed_seconds"] > 0

    def test_stats_dict_reports_every_int_counter(self):
        """as_dict() feeds the metrics registry and the OpenMetrics
        exposition: a counter missing from it is invisible there."""
        stats = SearchStats()
        int_fields = [
            f.name for f in dataclasses.fields(stats) if f.type in (int, "int")
        ]
        assert "trans_considered" in int_fields
        assert set(int_fields) <= set(stats.as_dict())

    def test_stats_dict_keys_and_order(self):
        assert list(SearchStats().as_dict()) == [
            "groups", "mexprs",
            "trans_rules_matched", "impl_rules_matched",
            "trans_rules_applicable", "impl_rules_applicable",
            "trans_fired", "trans_considered",
            "impl_considered", "impl_succeeded", "enforcer_applied",
            "optimize_calls", "winners_cached",
            "plan_cache_hits", "plan_cache_misses",
            "descriptors_shared", "descriptors_unique",
            "descriptor_values_shared", "memo_descriptor_objects",
            "elapsed_seconds",
        ]

    def test_merge_folds_every_field(self):
        """Every field survives merge(): numbers add, rule-name sets
        union."""
        fields = dataclasses.fields(SearchStats)
        left, right = SearchStats(), SearchStats()
        for base, stats in ((1, left), (100, right)):
            for position, f in enumerate(fields):
                value = getattr(stats, f.name)
                if isinstance(value, set):
                    value.add(f"{f.name}-{base}")
                else:
                    setattr(stats, f.name, type(value)(base + position))
        left.merge(right)
        for position, f in enumerate(fields):
            value = getattr(left, f.name)
            if isinstance(value, set):
                assert value == {f"{f.name}-1", f"{f.name}-100"}, f.name
            else:
                assert value == 101 + 2 * position, f.name

    def test_plan_leaves_are_files(
        self, relational_volcano_generated, e1_setup
    ):
        catalog, builder = e1_setup
        tree = build_e1(builder, 2)
        result = VolcanoOptimizer(relational_volcano_generated, catalog).optimize(
            tree
        )
        leaves = [n for n in walk(result.plan) if isinstance(n, StoredFileRef)]
        assert sorted(leaf.name for leaf in leaves) == ["C1", "C2", "C3"]

    def test_optimizer_reusable_across_queries(
        self, relational_volcano_generated, rel_catalog, rel_builder
    ):
        optimizer = VolcanoOptimizer(relational_volcano_generated, rel_catalog)
        a = optimizer.optimize(rel_builder.ret("R1"))
        b = optimizer.optimize(rel_builder.ret("R2"))
        assert a.cost != b.cost  # different relations, separate memos


class TestBranchAndBound:
    def test_costs_monotone_in_query_size(
        self, relational_volcano_generated, schema
    ):
        from repro.workloads.catalogs import make_experiment_catalog
        from repro.workloads.trees import TreeBuilder

        catalog = make_experiment_catalog(4, with_targets=False, fixed_cardinality=500)
        builder = TreeBuilder(schema, catalog)
        optimizer = VolcanoOptimizer(relational_volcano_generated, catalog)
        small = optimizer.optimize(build_e1(builder, 1))
        large = optimizer.optimize(build_e1(builder, 3))
        assert large.cost > small.cost

"""Tests for search heuristics (SearchOptions)."""

import pytest

from repro.volcano.search import SearchOptions, VolcanoOptimizer
from repro.workloads import make_query_instance

PULL_RULES = frozenset(
    {
        "select_join_pull_left",
        "select_join_pull_right",
        "mat_select_pull",
        "mat_pull_join_left",
        "mat_pull_join_right",
    }
)


class TestSearchOptions:
    def test_defaults_allow_everything(self):
        options = SearchOptions()
        assert options.allows("anything")

    def test_disabled_rules(self):
        options = SearchOptions(disabled_rules=frozenset({"join_commute"}))
        assert not options.allows("join_commute")
        assert options.allows("join_assoc")

    def test_budget_left(self, schema, oodb_volcano_generated):
        from repro.volcano.memo import Memo

        memo = Memo(())
        assert SearchOptions().exploration_budget_left(memo)
        assert not SearchOptions(max_groups=0).exploration_budget_left(memo)
        assert SearchOptions(max_mexprs=1).exploration_budget_left(memo)


class TestDisabledRules:
    def test_disabling_trans_rule_shrinks_space(
        self, schema, oodb_volcano_generated
    ):
        catalog, tree = make_query_instance(schema, "Q1", 3, 0)
        full = VolcanoOptimizer(oodb_volcano_generated, catalog).optimize(tree)
        no_assoc = VolcanoOptimizer(
            oodb_volcano_generated,
            catalog,
            options=SearchOptions(disabled_rules=frozenset({"join_assoc"})),
        ).optimize(tree)
        assert no_assoc.equivalence_classes < full.equivalence_classes
        assert no_assoc.cost >= full.cost  # never better than the optimum

    def test_disabling_impl_rule_changes_plans(
        self, schema, oodb_volcano_generated
    ):
        catalog, tree = make_query_instance(schema, "Q6", 1, 0)
        full = VolcanoOptimizer(oodb_volcano_generated, catalog).optimize(tree)
        no_index = VolcanoOptimizer(
            oodb_volcano_generated,
            catalog,
            options=SearchOptions(
                disabled_rules=frozenset({"ret_index_scan", "ret_index_order_scan"})
            ),
        ).optimize(tree)
        assert no_index.cost > full.cost
        from repro.algebra.expressions import interior_nodes

        names = {n.op.name for n in interior_nodes(no_index.plan)}
        assert "Index_scan" not in names

    def test_disabling_all_join_impls_kills_plans(
        self, schema, oodb_volcano_generated
    ):
        from repro.errors import NoPlanFoundError

        catalog, tree = make_query_instance(schema, "Q1", 1, 0)
        optimizer = VolcanoOptimizer(
            oodb_volcano_generated,
            catalog,
            options=SearchOptions(
                disabled_rules=frozenset({"join_hash", "join_pointer"})
            ),
        )
        with pytest.raises(NoPlanFoundError):
            optimizer.optimize(tree)

    def test_disabling_enforcer(self, schema, relational_volcano_generated):
        from repro.errors import NoPlanFoundError
        from repro.workloads.catalogs import make_experiment_catalog
        from repro.workloads.trees import TreeBuilder

        catalog = make_experiment_catalog(1, with_targets=False, instance=0)
        builder = TreeBuilder(schema, catalog)
        tree = builder.ret("C1")
        optimizer = VolcanoOptimizer(
            relational_volcano_generated,
            catalog,
            options=SearchOptions(disabled_rules=frozenset({"sort_merge_sort"})),
        )
        with pytest.raises(NoPlanFoundError):
            optimizer.optimize(tree, required=("a1",))

    def test_pull_rules_disabled_still_valid_plans(
        self, schema, oodb_volcano_generated
    ):
        catalog, tree = make_query_instance(schema, "Q7", 2, 0)
        pruned = VolcanoOptimizer(
            oodb_volcano_generated,
            catalog,
            options=SearchOptions(disabled_rules=PULL_RULES),
        ).optimize(tree)
        from repro.algebra.expressions import is_access_plan

        assert is_access_plan(pruned.plan)


class TestExactSearch:
    def test_pointer_join_survives_exact_search(
        self, schema, oodb_volcano_generated
    ):
        """Why the engine prunes only fully costed alternatives: the
        pointer join's cost is below the sum of its inputs' costs (it
        skips the inner scan), so a bound on accumulated input costs
        could cut the optimum."""
        from repro.catalog.predicates import equals_attr
        from repro.catalog.schema import Catalog, StoredFileInfo
        from repro.workloads.trees import TreeBuilder

        catalog = Catalog(
            [
                StoredFileInfo(
                    "Small", ("s_a", "s_r"), 50, 100,
                    reference_attrs=(("s_r", "Big"),),
                ),
                StoredFileInfo(
                    "Big", ("b_id", "b_x"), 300_000, 100, identity_attr="b_id"
                ),
            ]
        )
        builder = TreeBuilder(schema, catalog)
        tree = builder.join(
            builder.ret("Small"), builder.ret("Big"), equals_attr("s_r", "b_id")
        )
        result = VolcanoOptimizer(oodb_volcano_generated, catalog).optimize(tree)
        assert result.plan.op.name == "Pointer_join"
        # its cost is indeed below the inner scan's cost alone
        inner = result.plan.inputs[1]
        assert result.cost < inner.descriptor["cost"] + 50


class TestBudgets:
    def test_group_budget_caps_search_space(self, schema, oodb_volcano_generated):
        catalog, tree = make_query_instance(schema, "Q7", 2, 0)
        budgeted = VolcanoOptimizer(
            oodb_volcano_generated, catalog, options=SearchOptions(max_groups=40)
        ).optimize(tree)
        assert budgeted.equivalence_classes <= 50  # near the cap

    def test_budget_never_beats_optimum(self, schema, oodb_volcano_generated):
        catalog, tree = make_query_instance(schema, "Q5", 2, 0)
        full = VolcanoOptimizer(oodb_volcano_generated, catalog).optimize(tree)
        budgeted = VolcanoOptimizer(
            oodb_volcano_generated, catalog, options=SearchOptions(max_groups=15)
        ).optimize(tree)
        assert budgeted.cost >= full.cost - 1e-9

    def test_mexpr_budget(self, schema, oodb_volcano_generated):
        catalog, tree = make_query_instance(schema, "Q5", 2, 0)
        budgeted = VolcanoOptimizer(
            oodb_volcano_generated, catalog, options=SearchOptions(max_mexprs=60)
        ).optimize(tree)
        full = VolcanoOptimizer(oodb_volcano_generated, catalog).optimize(tree)
        assert budgeted.stats.mexprs <= full.stats.mexprs

    def test_budgeted_plans_execute_correctly(
        self, schema, oodb_volcano_generated
    ):
        from repro.engine.executor import (
            Database,
            execute_plan,
            naive_evaluate,
            rows_multiset,
        )
        from repro.workloads.catalogs import make_experiment_catalog
        from repro.workloads.expressions import build_expression
        from repro.workloads.trees import TreeBuilder

        catalog = make_experiment_catalog(
            3, with_targets=False, fixed_cardinality=40
        )
        builder = TreeBuilder(schema, catalog)
        tree = build_expression(builder, "E3", 2)
        result = VolcanoOptimizer(
            oodb_volcano_generated, catalog, options=SearchOptions(max_groups=12)
        ).optimize(tree)
        db = Database(catalog, seed=9)
        assert rows_multiset(execute_plan(result.plan, db)) == rows_multiset(
            naive_evaluate(tree, db)
        )

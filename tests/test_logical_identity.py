"""M-expr identity without derived stream properties.

The memo keys an m-expr on its operator, its input groups and its
descriptor projected onto the rule set's argument properties.  Derived
stream properties (``attributes``, ``tuple_size``) are not in that
projection: two derivations of one logical expression may compute them
differently (a commuted join lists its attributes in another order)
without being two expressions.  These tests search random join graphs
under both identities and require the same answer from fewer m-exprs,
and check that the plan cache, which keys on the same projection, still
tells different queries apart.
"""

import copy
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.volcano.explain import explain
from repro.volcano.plancache import PlanCache
from repro.volcano.properties import dont_care_vector
from repro.volcano.search import VolcanoOptimizer
from repro.workloads.catalogs import make_experiment_catalog
from repro.workloads.expressions import (
    build_e1,
    build_e2,
    build_e3,
    build_expression,
)
from repro.workloads.queries import make_query_instance
from repro.workloads.trees import TreeBuilder

OPTBENCH = Path(__file__).resolve().parents[1] / "optbench"
if str(OPTBENCH) not in sys.path:
    sys.path.append(str(OPTBENCH))

# The identity every property but cost and tuple order used to be part of.
OLD_ARGUMENT_PROPERTIES = (
    "file_name",
    "attributes",
    "num_records",
    "tuple_size",
    "selection_predicate",
    "join_predicate",
    "projected_attributes",
    "mat_attribute",
    "unnest_attribute",
)


def with_old_identity(ruleset):
    old = copy.copy(ruleset)
    old.argument_properties = OLD_ARGUMENT_PROPERTIES
    old.derived_properties = ()
    return old


# (template, topology, joins): E1 over chains and stars of 2-5 joins,
# and the MAT and SELECT templates where their old-identity search stays
# within a test's budget.
QUERY_SHAPES = st.one_of(
    st.tuples(
        st.just("E1"), st.sampled_from(["linear", "star"]), st.integers(2, 5)
    ),
    st.tuples(st.just("E2"), st.sampled_from(["linear", "star"]), st.just(2)),
    st.tuples(st.just("E3"), st.just("linear"), st.just(2)),
)


def build_query(schema, template, topology, joins, instance, with_indices):
    catalog = make_experiment_catalog(
        joins + 1,
        with_indices=with_indices,
        with_targets=template == "E2",
        instance=instance,
    )
    builder = TreeBuilder(schema, catalog)
    if template == "E1":
        tree = build_e1(builder, joins, topology=topology)
    elif template == "E2":
        tree = build_e2(builder, joins, topology=topology)
    else:
        tree = build_e3(builder, joins)
    return catalog, tree


@pytest.fixture(scope="module")
def rule_set_pairs(oodb_volcano_generated, oodb_volcano_hand):
    return [
        (ruleset, with_old_identity(ruleset))
        for ruleset in (oodb_volcano_generated, oodb_volcano_hand)
    ]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    shape=QUERY_SHAPES,
    instance=st.integers(0, 10_000),
    with_indices=st.booleans(),
)
def test_new_identity_finds_the_old_answer_with_fewer_mexprs(
    schema, rule_set_pairs, shape, instance, with_indices
):
    template, topology, joins = shape
    for new_rules, old_rules in rule_set_pairs:
        catalog, tree = build_query(
            schema, template, topology, joins, instance, with_indices
        )
        new = VolcanoOptimizer(new_rules, catalog).optimize(tree)
        old = VolcanoOptimizer(old_rules, catalog).optimize(tree)
        assert new.cost == old.cost
        assert explain(new, verbose=False) == explain(old, verbose=False)
        assert new.stats.mexprs <= old.stats.mexprs
        assert new.stats.groups <= old.stats.groups


class TestPlanCacheKeys:
    def key(self, ruleset, tree):
        required = dont_care_vector(ruleset.physical_properties)
        return PlanCache.key_for(ruleset, None, tree, required)

    def test_q7_instances_over_different_catalogs_get_distinct_keys(
        self, schema, oodb_volcano_generated
    ):
        _, tree0 = make_query_instance(schema, "Q7", 1, 0)
        _, tree1 = make_query_instance(schema, "Q7", 1, 1)
        assert self.key(oodb_volcano_generated, tree0) != self.key(
            oodb_volcano_generated, tree1
        )

    def test_rebuilt_tree_over_the_same_catalog_hits(
        self, schema, oodb_volcano_generated
    ):
        catalog, tree = make_query_instance(schema, "Q7", 1, 0)
        cache = PlanCache()
        optimizer = VolcanoOptimizer(
            oodb_volcano_generated, catalog, plan_cache=cache
        )
        first = optimizer.optimize(tree)
        rebuilt = build_expression(TreeBuilder(schema, catalog), "E4", 1)
        assert rebuilt is not tree
        second = optimizer.optimize(rebuilt)
        assert second.stats.plan_cache_hits == 1
        assert second.cost == first.cost

    @pytest.mark.parametrize("workload", ["hot_repeat", "catalog_churn"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_hot_pool_members_keep_distinct_keys(
        self, schema, oodb_volcano_generated, workload, seed
    ):
        import traffic

        pool = traffic.HotPool(seed, workload)
        keys = {
            self.key(oodb_volcano_generated, pool.request(schema, member).tree)
            for member in range(len(pool.members))
        }
        assert len(keys) == len(traffic.HOT_POOL)

"""Both search engines share one request path.

:class:`~repro.volcano.bottomup.BottomUpOptimizer` overrides only the
search schedule (``_search``); validation, search options, the plan
cache, statistics and trace events come from
:meth:`VolcanoOptimizer.optimize`.  These tests pin what that sharing
gives the bottom-up engine.
"""

import gc

import pytest

from repro.algebra.descriptors import Descriptor
from repro.errors import NoPlanFoundError
from repro.obs import CollectingTracer
from repro.volcano.bottomup import BottomUpOptimizer
from repro.volcano.plancache import PlanCache
from repro.volcano.search import SearchOptions, VolcanoOptimizer
from repro.workloads import make_query_instance

ENGINES = [VolcanoOptimizer, BottomUpOptimizer]

#: Q1 at one join costs 73.47 with every rule and 98.32 without the
#: join commutativity rule.
NO_COMMUTE = SearchOptions(disabled_rules=frozenset({"join_commute"}))


def test_bottom_up_defines_no_optimize():
    assert "optimize" not in vars(BottomUpOptimizer)


@pytest.mark.parametrize("engine", ENGINES)
def test_options_disable_rules(engine, schema, oodb_volcano_generated):
    catalog, tree = make_query_instance(schema, "Q1", 1, 0)
    full = engine(oodb_volcano_generated, catalog).optimize(tree)
    pruned = engine(
        oodb_volcano_generated, catalog, options=NO_COMMUTE
    ).optimize(tree)
    assert full.cost == pytest.approx(73.46756)
    assert pruned.cost == pytest.approx(98.31756)
    assert "join_commute" in full.stats.trans_matched
    assert "join_commute" not in pruned.stats.trans_matched


@pytest.mark.parametrize("engine", ENGINES)
def test_optimize_failed_carries_required(
    engine, schema, oodb_volcano_generated
):
    catalog, tree = make_query_instance(schema, "Q1", 1, 0)
    tracer = CollectingTracer()
    optimizer = engine(oodb_volcano_generated, catalog, tracer=tracer)
    with pytest.raises(NoPlanFoundError):
        optimizer.optimize(tree, required=("no_such_attribute",))
    (failed,) = [e for e in tracer.events if e.type == "optimize_failed"]
    assert failed.data["required"] == ("no_such_attribute",)
    assert "root_gid" in failed.data


def test_bottom_up_uses_the_plan_cache(schema, oodb_volcano_generated):
    catalog, tree = make_query_instance(schema, "Q3", 1, 0)
    optimizer = BottomUpOptimizer(
        oodb_volcano_generated, catalog, plan_cache=PlanCache()
    )
    cold = optimizer.optimize(tree)
    warm = optimizer.optimize(tree)
    assert cold.stats.plan_cache_misses == 1
    assert warm.stats.plan_cache_hits == 1
    assert warm.cost == cold.cost
    assert warm.stats.groups == cold.stats.groups


def _live_descriptors() -> int:
    gc.collect()
    return sum(isinstance(obj, Descriptor) for obj in gc.get_objects())


def test_finished_searches_retain_no_descriptors(
    schema, oodb_volcano_generated
):
    """An engine keeps nothing of a search once its result is dropped."""
    requests = []
    for qid, instance in (("Q1", 0), ("Q3", 1), ("Q5", 2), ("Q7", 0)):
        catalog, tree = make_query_instance(schema, qid, 1, instance)
        requests.append(
            (VolcanoOptimizer(oodb_volcano_generated, catalog), tree)
        )
    before = _live_descriptors()
    for optimizer, tree in requests:
        optimizer.optimize(tree)
    assert _live_descriptors() == before


class TestRequiredVectorChecked:
    """``optimize`` checks every value of ``required`` against the schema
    before the plan-cache probe and before any search work."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ill_typed_required_raises_for_both_root_kinds(
        self, engine, schema, oodb_volcano_generated
    ):
        from repro.errors import DescriptorError

        catalog, tree = make_query_instance(schema, "Q1", 1, 0)
        leaf = tree
        while not hasattr(leaf, "name"):
            leaf = leaf.inputs[0]
        for root in (tree, leaf):
            tracer = CollectingTracer()
            optimizer = engine(
                oodb_volcano_generated, catalog, plan_cache=PlanCache(4),
                tracer=tracer,
            )
            with pytest.raises(DescriptorError, match="tuple_order"):
                optimizer.optimize(root, required=(5,))
            assert not [
                event for event in tracer.events
                if event.type in ("optimize_begin", "optimize_group_begin")
            ]


def test_ill_typed_input_request_raises(schema):
    """An input request from ``get_input_pv`` is checked against the
    schema before it is written into an operator descriptor."""
    from repro.errors import DescriptorError
    from repro.optimizers.oodb_volcano import build_oodb_volcano

    ruleset = build_oodb_volcano()
    for rule in ruleset.impl_rules:
        rule.get_input_pv = lambda env, index: (5,)
    catalog, tree = make_query_instance(schema, "Q1", 1, 0)
    with pytest.raises(DescriptorError, match="tuple_order"):
        VolcanoOptimizer(ruleset, catalog).optimize(tree)

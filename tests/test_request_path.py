"""Both search engines share one request path.

:class:`~repro.volcano.bottomup.BottomUpOptimizer` overrides only the
search schedule (``_search``); validation, search options, the plan
cache, statistics and trace events come from
:meth:`VolcanoOptimizer.optimize`.  These tests pin what that sharing
gives the bottom-up engine.
"""

import pytest

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


def test_bottom_up_interns_descriptors(schema, oodb_volcano_generated):
    catalog, tree = make_query_instance(schema, "Q5", 2, 0)
    stats = BottomUpOptimizer(oodb_volcano_generated, catalog).optimize(
        tree
    ).stats
    assert stats.descriptor_values_shared > 0
    assert stats.descriptors_unique > 0
    assert stats.memo_descriptor_objects > 0


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

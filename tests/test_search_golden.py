"""Golden search outcomes: what the Volcano search finds, pinned exactly.

The values were recorded when the engine still kept a second,
seed-equivalent search path beside the indexed one; every combination of
the two gave exactly these rows.  Any change to the search — rule order,
memo shape, costing — that alters a plan, a cost or the size of the memo
fails here, so a faster search must reproduce every row bit-for-bit.
"""

import pytest

from repro.catalog.predicates import equals_attr
from repro.volcano.explain import explain
from repro.volcano.search import VolcanoOptimizer
from repro.workloads.catalogs import make_experiment_catalog
from repro.workloads.expressions import build_e1
from repro.workloads.queries import make_query_instance
from repro.workloads.trees import TreeBuilder

# (cost, groups, mexprs, trans_fired, winners_cached)
OODB_GOLDEN = {
    ("Q1", 1): (73.46755999999999, 5, 6, 2, 5),
    ("Q1", 2): (611.7222, 9, 15, 11, 9),
    ("Q2", 1): (73.46755999999999, 5, 6, 2, 5),
    ("Q2", 2): (611.7222, 9, 15, 11, 9),
    ("Q3", 1): (3230.46756, 10, 23, 44, 10),
    ("Q3", 2): (12098.7222, 25, 143, 792, 25),
    ("Q4", 1): (3230.46756, 10, 23, 44, 10),
    ("Q4", 2): (12098.7222, 25, 143, 792, 25),
    ("Q5", 1): (38.835242, 10, 25, 43, 10),
    ("Q5", 2): (140.62639178000003, 25, 185, 1143, 25),
    ("Q6", 1): (10.401012, 10, 25, 43, 10),
    ("Q6", 2): (18.40309178, 25, 185, 1143, 25),
    ("Q7", 1): (39.536365999999994, 26, 134, 629, 26),
    ("Q7", 2): (140.64242651, 111, 2441, 47753, 111),
    ("Q8", 1): (11.102136, 26, 134, 629, 26),
    ("Q8", 2): (18.419126510000005, 111, 2441, 47753, 111),
}

# Wider join graphs, where transformation closure is deep enough that a
# rule application lost to pruning would change the memo: 1-2 join rows
# cannot see it.  Same columns as OODB_GOLDEN; instance 0 throughout.
WIDE_GOLDEN = {
    ("Q1", 4): (1820.3618999999999, 21, 73, 113, 21),
    ("Q1", 6): (2772.1338, 44, 387, 1122, 44),
    ("star", 4): (11119.1443, 28, 124, 208, 28),
    ("star", 5): (1221.42855, 69, 784, 2142, 69),
}

RELATIONAL_3WAY_GOLDEN = (855.3295199263462, 9, 15, 11, 16)

OODB_EXPLAIN = {
    ("Q1", 1): """\
-> Hash_join  (rows≈3361, cost=73.47)  [join on: b1 = b2]
  -> File_scan  (rows≈2821, cost=34.44)
    -> C2 (stored file)
  -> File_scan  (rows≈336, cost=4.10)
    -> C1 (stored file)

total estimated cost: 73.47""",
    ("Q1", 2): """\
-> Hash_join  (rows≈281937, cost=611.72)  [join on: b2 = b3]
  -> Hash_join  (rows≈28212, cost=180.58)  [join on: b1 = b2]
    -> File_scan  (rows≈4036, cost=49.27)
      -> C2 (stored file)
    -> File_scan  (rows≈2824, cost=34.47)
      -> C1 (stored file)
  -> File_scan  (rows≈4627, cost=56.48)
    -> C3 (stored file)

total estimated cost: 611.72""",
    ("Q2", 1): """\
-> Hash_join  (rows≈3361, cost=73.47)  [join on: b1 = b2]
  -> File_scan  (rows≈2821, cost=34.44)
    -> C2 (stored file)
  -> File_scan  (rows≈336, cost=4.10)
    -> C1 (stored file)

total estimated cost: 73.47""",
    ("Q2", 2): """\
-> Hash_join  (rows≈281937, cost=611.72)  [join on: b2 = b3]
  -> Hash_join  (rows≈28212, cost=180.58)  [join on: b1 = b2]
    -> File_scan  (rows≈4036, cost=49.27)
      -> C2 (stored file)
    -> File_scan  (rows≈2824, cost=34.47)
      -> C1 (stored file)
  -> File_scan  (rows≈4627, cost=56.48)
    -> C3 (stored file)

total estimated cost: 611.72""",
    ("Q3", 1): """\
-> Hash_join  (rows≈3361, cost=3230.47)  [join on: b1 = b2]
  -> Mat_deref  (rows≈2821, cost=2855.44)  [materialize: r2]
    -> File_scan  (rows≈2821, cost=34.44)
      -> C2 (stored file)
  -> Mat_deref  (rows≈336, cost=340.10)  [materialize: r1]
    -> File_scan  (rows≈336, cost=4.10)
      -> C1 (stored file)

total estimated cost: 3230.47""",
    ("Q3", 2): """\
-> Hash_join  (rows≈281937, cost=12098.72)  [join on: b2 = b3]
  -> Hash_join  (rows≈28212, cost=7040.58)  [join on: b1 = b2]
    -> Mat_deref  (rows≈4036, cost=4085.27)  [materialize: r2]
      -> File_scan  (rows≈4036, cost=49.27)
        -> C2 (stored file)
    -> Mat_deref  (rows≈2824, cost=2858.47)  [materialize: r1]
      -> File_scan  (rows≈2824, cost=34.47)
        -> C1 (stored file)
  -> Mat_deref  (rows≈4627, cost=4683.48)  [materialize: r3]
    -> File_scan  (rows≈4627, cost=56.48)
      -> C3 (stored file)

total estimated cost: 12098.72""",
    ("Q4", 1): """\
-> Hash_join  (rows≈3361, cost=3230.47)  [join on: b1 = b2]
  -> Mat_deref  (rows≈2821, cost=2855.44)  [materialize: r2]
    -> File_scan  (rows≈2821, cost=34.44)
      -> C2 (stored file)
  -> Mat_deref  (rows≈336, cost=340.10)  [materialize: r1]
    -> File_scan  (rows≈336, cost=4.10)
      -> C1 (stored file)

total estimated cost: 3230.47""",
    ("Q4", 2): """\
-> Hash_join  (rows≈281937, cost=12098.72)  [join on: b2 = b3]
  -> Hash_join  (rows≈28212, cost=7040.58)  [join on: b1 = b2]
    -> Mat_deref  (rows≈4036, cost=4085.27)  [materialize: r2]
      -> File_scan  (rows≈4036, cost=49.27)
        -> C2 (stored file)
    -> Mat_deref  (rows≈2824, cost=2858.47)  [materialize: r1]
      -> File_scan  (rows≈2824, cost=34.47)
        -> C1 (stored file)
  -> Mat_deref  (rows≈4627, cost=4683.48)  [materialize: r3]
    -> File_scan  (rows≈4627, cost=56.48)
      -> C3 (stored file)

total estimated cost: 12098.72""",
    ("Q5", 1): """\
-> Hash_join  (rows≈0, cost=38.84)  [join on: b1 = b2]
  -> File_scan  (rows≈10, cost=34.44)  [filter: a2 = 2]
    -> C2 (stored file)
  -> File_scan  (rows≈10, cost=4.10)  [filter: a1 = 1]
    -> C1 (stored file)

total estimated cost: 38.84""",
    ("Q5", 2): """\
-> Hash_join  (rows≈0, cost=140.63)  [join on: b1 = b2]
  -> File_scan  (rows≈10, cost=34.47)  [filter: a1 = 1]
    -> C1 (stored file)
  -> Hash_join  (rows≈0, cost=106.05)  [join on: b2 = b3]
    -> File_scan  (rows≈10, cost=56.48)  [filter: a3 = 3]
      -> C3 (stored file)
    -> File_scan  (rows≈10, cost=49.27)  [filter: a2 = 2]
      -> C2 (stored file)

total estimated cost: 140.63""",
    ("Q6", 1): """\
-> Hash_join  (rows≈0, cost=10.40)  [join on: b1 = b2]
  -> Index_scan  (rows≈10, cost=6.00)  [filter: a2 = 2; order: a2]
    -> C2 (stored file)
  -> File_scan  (rows≈10, cost=4.10)  [filter: a1 = 1]
    -> C1 (stored file)

total estimated cost: 10.40""",
    ("Q6", 2): """\
-> Hash_join  (rows≈0, cost=18.40)  [join on: b1 = b2]
  -> Index_scan  (rows≈10, cost=6.01)  [filter: a1 = 1; order: a1]
    -> C1 (stored file)
  -> Hash_join  (rows≈0, cost=12.29)  [join on: b2 = b3]
    -> Index_scan  (rows≈10, cost=6.00)  [filter: a3 = 3; order: a3]
      -> C3 (stored file)
    -> Index_scan  (rows≈10, cost=6.00)  [filter: a2 = 2; order: a2]
      -> C2 (stored file)

total estimated cost: 18.40""",
    ("Q7", 1): """\
-> Mat_deref  (rows≈0, cost=39.54)  [materialize: r1]
  -> Mat_deref  (rows≈0, cost=39.19)  [materialize: r2]
    -> Hash_join  (rows≈0, cost=38.84)  [join on: b1 = b2]
      -> File_scan  (rows≈10, cost=34.44)  [filter: a2 = 2]
        -> C2 (stored file)
      -> File_scan  (rows≈10, cost=4.10)  [filter: a1 = 1]
        -> C1 (stored file)

total estimated cost: 39.54""",
    ("Q7", 2): """\
-> Mat_deref  (rows≈0, cost=140.64)  [materialize: r1]
  -> Mat_deref  (rows≈0, cost=140.64)  [materialize: r2]
    -> Mat_deref  (rows≈0, cost=140.63)  [materialize: r3]
      -> Hash_join  (rows≈0, cost=140.63)  [join on: b1 = b2]
        -> File_scan  (rows≈10, cost=34.47)  [filter: a1 = 1]
          -> C1 (stored file)
        -> Hash_join  (rows≈0, cost=106.05)  [join on: b2 = b3]
          -> File_scan  (rows≈10, cost=56.48)  [filter: a3 = 3]
            -> C3 (stored file)
          -> File_scan  (rows≈10, cost=49.27)  [filter: a2 = 2]
            -> C2 (stored file)

total estimated cost: 140.64""",
    ("Q8", 1): """\
-> Mat_deref  (rows≈0, cost=11.10)  [materialize: r1]
  -> Mat_deref  (rows≈0, cost=10.75)  [materialize: r2]
    -> Hash_join  (rows≈0, cost=10.40)  [join on: b1 = b2]
      -> Index_scan  (rows≈10, cost=6.00)  [filter: a2 = 2; order: a2]
        -> C2 (stored file)
      -> File_scan  (rows≈10, cost=4.10)  [filter: a1 = 1]
        -> C1 (stored file)

total estimated cost: 11.10""",
    ("Q8", 2): """\
-> Mat_deref  (rows≈0, cost=18.42)  [materialize: r1]
  -> Mat_deref  (rows≈0, cost=18.41)  [materialize: r2]
    -> Mat_deref  (rows≈0, cost=18.41)  [materialize: r3]
      -> Hash_join  (rows≈0, cost=18.40)  [join on: b1 = b2]
        -> Index_scan  (rows≈10, cost=6.01)  [filter: a1 = 1; order: a1]
          -> C1 (stored file)
        -> Hash_join  (rows≈0, cost=12.29)  [join on: b2 = b3]
          -> Index_scan  (rows≈10, cost=6.00)  [filter: a3 = 3; order: a3]
            -> C3 (stored file)
          -> Index_scan  (rows≈10, cost=6.00)  [filter: a2 = 2; order: a2]
            -> C2 (stored file)

total estimated cost: 18.42""",
}

RELATIONAL_3WAY_EXPLAIN = """\
-> Merge_join  (rows≈50000, cost=855.33)  [join on: b2 = b3; order: b2]
  -> Merge_join  (rows≈5000, cost=322.28)  [join on: b1 = b2; order: b2]
    -> Merge_sort  (rows≈500, cost=95.76)  [order: b2]
      -> File_scan  (rows≈500, cost=6.10)
        -> R2 (stored file)
    -> Merge_sort  (rows≈1000, cost=211.52)  [order: b1]
      -> File_scan  (rows≈1000, cost=12.21)
        -> R1 (stored file)
  -> Merge_sort  (rows≈2000, cost=463.05)  [order: b3]
    -> File_scan  (rows≈2000, cost=24.41)
      -> R3 (stored file)

total estimated cost: 855.33"""


def _outcome(result):
    stats = result.stats
    return (
        result.cost,
        stats.groups,
        stats.mexprs,
        stats.trans_fired,
        stats.winners_cached,
    )


@pytest.mark.parametrize("qid,n_joins", sorted(OODB_GOLDEN))
def test_oodb_search_outcome(schema, oodb_volcano_generated, qid, n_joins):
    catalog, tree = make_query_instance(schema, qid, n_joins, 0)
    result = VolcanoOptimizer(oodb_volcano_generated, catalog).optimize(tree)
    assert _outcome(result) == OODB_GOLDEN[qid, n_joins]
    assert explain(result, verbose=False) == OODB_EXPLAIN[qid, n_joins]


@pytest.mark.parametrize("family,n_joins", sorted(WIDE_GOLDEN))
def test_wide_search_outcome(schema, oodb_volcano_generated, family, n_joins):
    if family == "star":
        catalog = make_experiment_catalog(
            n_joins + 1, with_indices=False, with_targets=False, instance=0
        )
        tree = build_e1(TreeBuilder(schema, catalog), n_joins, topology="star")
    else:
        catalog, tree = make_query_instance(schema, family, n_joins, 0)
    result = VolcanoOptimizer(oodb_volcano_generated, catalog).optimize(tree)
    assert _outcome(result) == WIDE_GOLDEN[family, n_joins]


def test_relational_3way_search_outcome(
    relational_volcano_generated, rel_catalog, rel_builder
):
    tree = rel_builder.join(
        rel_builder.join(
            rel_builder.ret("R1"),
            rel_builder.ret("R2"),
            equals_attr("b1", "b2"),
        ),
        rel_builder.ret("R3"),
        equals_attr("b2", "b3"),
    )
    result = VolcanoOptimizer(relational_volcano_generated, rel_catalog).optimize(
        tree
    )
    assert _outcome(result) == RELATIONAL_3WAY_GOLDEN
    assert explain(result, verbose=False) == RELATIONAL_3WAY_EXPLAIN

"""Golden search outcomes: what the Volcano search finds, pinned exactly.

The values were recorded when the engine still kept a second,
seed-equivalent search path beside the indexed one; every combination of
the two gave exactly these rows.  Any change to the search — rule order,
memo shape, costing — that alters a plan, a cost or the size of the memo
fails here, so a faster search must reproduce every row bit-for-bit.

The m-expr and ``trans_fired`` columns were re-recorded once, when
derived stream properties (``attributes``, ``tuple_size``) left the
m-expr identity: one logical expression reached by two derivation paths
stopped counting as two m-exprs.  Costs, groups, ``winners_cached`` and
every EXPLAIN text stayed as recorded before.

``ENFORCER_GOLDEN`` pins the enforcer path, which unordered requests never
reach: OODB searches with an ordered root, on both the generated and the
hand-coded rule set.  It was recorded while the engine still applied impl
rules and enforcers through two separate methods.
"""

from collections import Counter

import pytest

from repro.bench.harness import build_optimizer_pair
from repro.catalog.predicates import equals_attr
from repro.obs.tracer import CollectingTracer
from repro.volcano.explain import explain
from repro.volcano.search import VolcanoOptimizer
from repro.workloads.catalogs import make_experiment_catalog
from repro.workloads.expressions import build_e1
from repro.workloads.queries import make_query_instance
from repro.workloads.trees import TreeBuilder

# (cost, groups, mexprs, trans_fired, winners_cached)
OODB_GOLDEN = {
    ("Q1", 1): (73.46755999999999, 5, 6, 2, 5),
    ("Q1", 2): (611.7222, 9, 14, 10, 9),
    ("Q2", 1): (73.46755999999999, 5, 6, 2, 5),
    ("Q2", 2): (611.7222, 9, 14, 10, 9),
    ("Q3", 1): (3230.46756, 10, 18, 26, 10),
    ("Q3", 2): (12098.7222, 25, 77, 208, 25),
    ("Q4", 1): (3230.46756, 10, 18, 26, 10),
    ("Q4", 2): (12098.7222, 25, 77, 208, 25),
    ("Q5", 1): (38.835242, 10, 21, 29, 10),
    ("Q5", 2): (140.62639178000003, 25, 130, 489, 25),
    ("Q6", 1): (10.401012, 10, 21, 29, 10),
    ("Q6", 2): (18.40309178, 25, 130, 489, 25),
    ("Q7", 1): (39.536365999999994, 26, 86, 252, 26),
    ("Q7", 2): (140.64242651, 111, 1137, 9217, 111),
    ("Q8", 1): (11.102136, 26, 86, 252, 26),
    ("Q8", 2): (18.419126510000005, 111, 1137, 9217, 111),
}

# Wider join graphs, where transformation closure is deep enough that a
# rule application lost to pruning would change the memo: 1-2 join rows
# cannot see it.  Same columns as OODB_GOLDEN; instance 0 throughout.
WIDE_GOLDEN = {
    ("Q1", 4): (1820.3618999999999, 21, 58, 86, 21),
    ("Q1", 6): (2772.1338, 44, 264, 696, 44),
    ("star", 4): (11119.1443, 28, 102, 172, 28),
    ("star", 5): (1221.42855, 69, 566, 1518, 69),
}

RELATIONAL_3WAY_GOLDEN = (855.3295199263462, 9, 14, 10, 16)

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


# Ordered root requests, which reach the enforcer path: OODB Q1-Q8 x 1-2
# joins, instance 0, the root ordered on its first or its last attribute,
# on the generated and the hand-coded rule set.  No OODB impl rule asks
# its inputs for an order, so these requests are the only OODB searches
# that apply enforcers.  Columns: (cost, impl_considered, impl_succeeded,
# enforcer_applied, optimize_calls, winners_cached).
ENFORCER_GOLDEN = {
    ("generated", "Q1", 1, "first"): (860.9780000520977, 14, 4, 1, 6, 6),
    ("generated", "Q1", 1, "last"): (860.9780000520977, 14, 4, 1, 6, 6),
    ("generated", "Q1", 2, "first"): (102701.18487743592, 33, 8, 1, 10, 10),
    ("generated", "Q1", 2, "last"): (102701.18487743592, 33, 8, 1, 10, 10),
    ("generated", "Q2", 1, "first"): (860.9780000520977, 14, 4, 1, 6, 6),
    ("generated", "Q2", 1, "last"): (860.9780000520977, 14, 4, 1, 6, 6),
    ("generated", "Q2", 2, "first"): (102701.18487743592, 33, 8, 1, 10, 10),
    ("generated", "Q2", 2, "last"): (102701.18487743592, 33, 8, 1, 10, 10),
    ("generated", "Q3", 1, "first"): (4017.9780000520977, 48, 16, 4, 14, 14),
    ("generated", "Q3", 1, "last"): (4017.9780000520977, 48, 13, 2, 14, 14),
    ("generated", "Q3", 2, "first"): (114188.18487743592, 204, 42, 8, 33, 33),
    ("generated", "Q3", 2, "last"): (114188.18487743592, 204, 34, 4, 33, 33),
    ("generated", "Q4", 1, "first"): (4017.9780000520977, 48, 16, 4, 14, 14),
    ("generated", "Q4", 1, "last"): (4017.9780000520977, 48, 13, 2, 14, 14),
    ("generated", "Q4", 2, "first"): (114188.18487743592, 204, 42, 8, 33, 33),
    ("generated", "Q4", 2, "last"): (114188.18487743592, 204, 34, 4, 33, 33),
    ("generated", "Q5", 1, "first"): (38.835242, 56, 21, 4, 14, 14),
    ("generated", "Q5", 1, "last"): (38.835242, 56, 21, 4, 14, 14),
    ("generated", "Q5", 2, "first"): (140.62639178000003, 375, 61, 8, 33, 33),
    ("generated", "Q5", 2, "last"): (140.62639178000003, 375, 61, 8, 33, 33),
    ("generated", "Q6", 1, "first"): (10.401012, 56, 22, 4, 14, 14),
    ("generated", "Q6", 1, "last"): (10.401012, 56, 22, 4, 14, 14),
    ("generated", "Q6", 2, "first"): (18.40309178, 375, 64, 8, 33, 33),
    ("generated", "Q6", 2, "last"): (18.40309178, 375, 64, 8, 33, 33),
    ("generated", "Q7", 1, "first"): (39.536365999999994, 228, 71, 10, 42, 42),
    ("generated", "Q7", 1, "last"): (39.536365999999994, 228, 57, 7, 42, 42),
    ("generated", "Q7", 2, "first"): (140.64242651, 3198, 324, 32, 175, 175),
    ("generated", "Q7", 2, "last"): (140.64242651, 3198, 266, 22, 175, 175),
    ("generated", "Q8", 1, "first"): (11.102136, 228, 72, 9, 42, 42),
    ("generated", "Q8", 1, "last"): (11.102136, 228, 58, 6, 42, 42),
    ("generated", "Q8", 2, "first"): (18.419126510000005, 3198, 327, 32, 175, 175),
    ("generated", "Q8", 2, "last"): (18.419126510000005, 3198, 269, 22, 175, 175),
    ("hand", "Q1", 1, "first"): (860.9780000520977, 14, 4, 1, 6, 6),
    ("hand", "Q1", 1, "last"): (860.9780000520977, 14, 4, 1, 6, 6),
    ("hand", "Q1", 2, "first"): (102701.18487743592, 33, 8, 1, 10, 10),
    ("hand", "Q1", 2, "last"): (102701.18487743592, 33, 8, 1, 10, 10),
    ("hand", "Q2", 1, "first"): (860.9780000520977, 14, 4, 1, 6, 6),
    ("hand", "Q2", 1, "last"): (860.9780000520977, 14, 4, 1, 6, 6),
    ("hand", "Q2", 2, "first"): (102701.18487743592, 33, 8, 1, 10, 10),
    ("hand", "Q2", 2, "last"): (102701.18487743592, 33, 8, 1, 10, 10),
    ("hand", "Q3", 1, "first"): (4017.9780000520977, 48, 16, 4, 14, 14),
    ("hand", "Q3", 1, "last"): (4017.9780000520977, 48, 13, 2, 14, 14),
    ("hand", "Q3", 2, "first"): (114188.18487743592, 204, 42, 8, 33, 33),
    ("hand", "Q3", 2, "last"): (114188.18487743592, 204, 34, 4, 33, 33),
    ("hand", "Q4", 1, "first"): (4017.9780000520977, 48, 16, 4, 14, 14),
    ("hand", "Q4", 1, "last"): (4017.9780000520977, 48, 13, 2, 14, 14),
    ("hand", "Q4", 2, "first"): (114188.18487743592, 204, 42, 8, 33, 33),
    ("hand", "Q4", 2, "last"): (114188.18487743592, 204, 34, 4, 33, 33),
    ("hand", "Q5", 1, "first"): (38.84225324, 56, 21, 4, 14, 14),
    ("hand", "Q5", 1, "last"): (38.84225324, 56, 21, 4, 14, 14),
    ("hand", "Q5", 2, "first"): (140.62649867820002, 375, 61, 8, 33, 33),
    ("hand", "Q5", 2, "last"): (140.62649867820002, 375, 61, 8, 33, 33),
    ("hand", "Q6", 1, "first"): (10.40802324, 56, 22, 4, 14, 14),
    ("hand", "Q6", 1, "last"): (10.40802324, 56, 22, 4, 14, 14),
    ("hand", "Q6", 2, "first"): (18.4031986782, 375, 64, 8, 33, 33),
    ("hand", "Q6", 2, "last"): (18.4031986782, 375, 64, 8, 33, 33),
    ("hand", "Q7", 1, "first"): (39.54337723999999, 228, 71, 10, 42, 42),
    ("hand", "Q7", 1, "last"): (39.54337723999999, 228, 57, 7, 42, 42),
    ("hand", "Q7", 2, "first"): (140.6425334082, 3198, 324, 32, 175, 175),
    ("hand", "Q7", 2, "last"): (140.6425334082, 3198, 266, 22, 175, 175),
    ("hand", "Q8", 1, "first"): (11.10914724, 228, 72, 9, 42, 42),
    ("hand", "Q8", 1, "last"): (11.10914724, 228, 58, 6, 42, 42),
    ("hand", "Q8", 2, "first"): (18.419233408200004, 3198, 327, 32, 175, 175),
    ("hand", "Q8", 2, "last"): (18.419233408200004, 3198, 269, 22, 175, 175),
}

ENFORCER_EXPLAIN = {
    ("generated", "Q1", 1, "first"): """\
-> Merge_sort  (rows≈3361, cost=860.98)  [join on: b1 = b2; order: a1]
  -> Hash_join  (rows≈3361, cost=73.47)  [join on: b1 = b2]
    -> File_scan  (rows≈2821, cost=34.44)
      -> C2 (stored file)
    -> File_scan  (rows≈336, cost=4.10)
      -> C1 (stored file)

total estimated cost: 860.98""",
    ("generated", "Q3", 1, "last"): """\
-> Merge_sort  (rows≈3361, cost=4017.98)  [join on: b1 = b2; order: t2_y]
  -> Hash_join  (rows≈3361, cost=3230.47)  [join on: b1 = b2]
    -> Mat_deref  (rows≈2821, cost=2855.44)  [materialize: r2]
      -> File_scan  (rows≈2821, cost=34.44)
        -> C2 (stored file)
    -> Mat_deref  (rows≈336, cost=340.10)  [materialize: r1]
      -> File_scan  (rows≈336, cost=4.10)
        -> C1 (stored file)

total estimated cost: 4017.98""",
    ("generated", "Q7", 1, "last"): """\
-> Mat_deref  (rows≈0, cost=39.54)  [materialize: r1; order: t2_y]
  -> Merge_sort  (rows≈0, cost=39.19)  [filter: a1 = 1 AND a2 = 2; order: t2_y]
    -> Mat_deref  (rows≈0, cost=39.19)  [materialize: r2]
      -> Hash_join  (rows≈0, cost=38.84)  [join on: b1 = b2]
        -> File_scan  (rows≈10, cost=34.44)  [filter: a2 = 2]
          -> C2 (stored file)
        -> File_scan  (rows≈10, cost=4.10)  [filter: a1 = 1]
          -> C1 (stored file)

total estimated cost: 39.54""",
    ("hand", "Q7", 1, "last"): """\
-> Mat_deref  (rows≈0, cost=39.54)  [materialize: r1; order: t2_y]
  -> Merge_sort  (rows≈0, cost=39.19)  [filter: a1 = 1 AND a2 = 2; order: t2_y]
    -> Mat_deref  (rows≈0, cost=39.19)  [materialize: r2]
      -> Hash_join  (rows≈0, cost=38.84)  [join on: b1 = b2]
        -> File_scan  (rows≈10, cost=34.44)  [filter: a2 = 2]
          -> C2 (stored file)
        -> File_scan  (rows≈10, cost=4.10)  [filter: a1 = 1]
          -> C1 (stored file)

total estimated cost: 39.54""",
}

# Enforcer trace events of two rows: (event, reason) -> count.  The "last"
# attribute is one only a dereference adds, so the sort enforcer's
# condition fails below the MAT that produces it.
ENFORCER_EVENTS = {
    ("generated", "Q3", 1, "last"): {
        ("enforcer_rejected", "condition"): 2,
        ("enforcer_applied", None): 2,
    },
    ("hand", "Q7", 1, "last"): {
        ("enforcer_rejected", "condition"): 8,
        ("enforcer_applied", None): 7,
    },
}


def _ordered_search(ruleset_kind, qid, n_joins, position, tracer=None):
    pair = build_optimizer_pair("oodb")
    ruleset = (
        pair.translation.volcano if ruleset_kind == "generated"
        else pair.hand_coded
    )
    catalog, tree = make_query_instance(pair.schema, qid, n_joins, 0)
    attributes = tree.descriptor["attributes"]
    order = attributes[0] if position == "first" else attributes[-1]
    return VolcanoOptimizer(ruleset, catalog, tracer=tracer).optimize(
        tree, required=(order,)
    )


@pytest.mark.parametrize("row", sorted(ENFORCER_GOLDEN))
def test_enforcer_path_outcome(row):
    result = _ordered_search(*row)
    stats = result.stats
    assert (
        result.cost,
        stats.impl_considered,
        stats.impl_succeeded,
        stats.enforcer_applied,
        stats.optimize_calls,
        stats.winners_cached,
    ) == ENFORCER_GOLDEN[row]
    if row in ENFORCER_EXPLAIN:
        assert explain(result, verbose=False) == ENFORCER_EXPLAIN[row]


@pytest.mark.parametrize("row", sorted(ENFORCER_EVENTS))
def test_enforcer_path_events(row):
    tracer = CollectingTracer()
    _ordered_search(*row, tracer=tracer)
    seen = Counter(
        (event.type, event.data.get("reason"))
        for event in tracer.events
        if event.type in ("enforcer_rejected", "enforcer_applied")
    )
    assert dict(seen) == ENFORCER_EVENTS[row]

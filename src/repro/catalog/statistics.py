"""Selectivity estimation in the System R tradition.

The paper's cost models (Figures 5–6) compute result cardinalities from
input cardinalities; the constants here follow the classic Selinger
selectivity factors [17 in the paper]: equality against a constant is
``1/distinct``, equi-joins are ``1/max(distinct_left, distinct_right)``,
range predicates get fixed default factors.  We approximate the number of
distinct values of an attribute by the owning file's cardinality scaled by
:data:`DISTINCT_FRACTION` (the synthetic data generator produces data with
exactly this ratio, so estimates are well calibrated for the benchmarks).
"""

from __future__ import annotations

from typing import Iterable

from repro.catalog.predicates import (
    AttrRef,
    Comparison,
    Const,
    Predicate,
    attributes_of,
    conjuncts,
)
from repro.catalog.schema import Catalog

# Fraction of a file's cardinality that is distinct in any one attribute.
# The data generator draws attribute values uniformly from a domain of
# size max(1, round(cardinality * DISTINCT_FRACTION)).
DISTINCT_FRACTION = 0.1

# Default selectivities for predicates we cannot estimate structurally
# (classic System R defaults).
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_NEQ_SELECTIVITY = 0.9

# Selectivity estimation is called from rule conditions, actions, and
# cost functions on every rule application, with a small set of distinct
# (predicate, attribute) arguments per query — so the estimates below are
# memoized on the owning catalog (whose mutation drops the memo, see
# Catalog.add), which makes them near-free.


def distinct_values(catalog: Catalog, attribute: str) -> int:
    """Estimated number of distinct values of ``attribute``."""
    cache = catalog._stats_cache
    key = ("distinct", attribute)
    hit = cache.get(key)
    if hit is not None:
        return hit
    info = catalog.file_of_attribute(attribute)
    value = max(1, round(info.cardinality * DISTINCT_FRACTION))
    cache[key] = value
    return value


def comparison_selectivity(catalog: Catalog, atom: Comparison) -> float:
    """Selectivity of a single atomic comparison."""
    left, right = atom.left, atom.right
    if atom.op == "=":
        if isinstance(left, AttrRef) and isinstance(right, Const):
            return 1.0 / distinct_values(catalog, left.name)
        if isinstance(left, Const) and isinstance(right, AttrRef):
            return 1.0 / distinct_values(catalog, right.name)
        if isinstance(left, AttrRef) and isinstance(right, AttrRef):
            return 1.0 / max(
                distinct_values(catalog, left.name),
                distinct_values(catalog, right.name),
            )
        return DEFAULT_EQ_SELECTIVITY
    if atom.op == "!=":
        return DEFAULT_NEQ_SELECTIVITY
    return DEFAULT_RANGE_SELECTIVITY


def selection_selectivity(catalog: Catalog, pred: "Predicate | None") -> float:
    """Selectivity of a (conjunctive) predicate, independence assumed."""
    cache = catalog._stats_cache
    key = ("sel", pred)
    try:
        hit = cache.get(key)
    except TypeError:  # unhashable constant inside the predicate
        hit = None
        key = None
    if hit is not None:
        return hit
    sel = 1.0
    for atom in conjuncts(pred):
        sel *= comparison_selectivity(catalog, atom)
    if key is not None:
        cache[key] = sel
    return sel


def join_selectivity(catalog: Catalog, pred: "Predicate | None") -> float:
    """Selectivity of a join predicate applied to a cross product.

    A TRUE predicate means a cross product (selectivity 1).
    """
    return selection_selectivity(catalog, pred)


def estimate_join_cardinality(
    catalog: Catalog,
    left_cardinality: float,
    right_cardinality: float,
    pred: "Predicate | None",
) -> float:
    """Estimated output cardinality of a join (≥ 0, may be fractional)."""
    return left_cardinality * right_cardinality * join_selectivity(catalog, pred)


def estimate_selection_cardinality(
    catalog: Catalog, input_cardinality: float, pred: "Predicate | None"
) -> float:
    """Estimated output cardinality of a selection."""
    return input_cardinality * selection_selectivity(catalog, pred)


def indexable_conjuncts(
    catalog: Catalog, file_name: str, pred: "Predicate | None"
) -> tuple[Comparison, ...]:
    """Equality-against-constant conjuncts with a matching index on the file.

    These are the conjuncts an Index_scan can satisfy; cost models and the
    index-scan applicability tests both use this.
    """
    key = ("idxc", file_name, pred)
    try:
        hit = catalog._stats_cache.get(key)
    except TypeError:
        hit = None
        key = None
    if hit is not None:
        return hit
    result = _indexable_conjuncts(catalog, file_name, pred)
    if key is not None:
        catalog._stats_cache[key] = result
    return result


def _indexable_conjuncts(
    catalog: Catalog, file_name: str, pred: "Predicate | None"
) -> tuple[Comparison, ...]:
    info = catalog[file_name]
    matched = []
    for atom in conjuncts(pred):
        if atom.op != "=":
            continue
        attr = None
        if isinstance(atom.left, AttrRef) and isinstance(atom.right, Const):
            attr = atom.left.name
        elif isinstance(atom.right, AttrRef) and isinstance(atom.left, Const):
            attr = atom.right.name
        if attr is not None and info.has_index_on(attr):
            matched.append(atom)
    return tuple(matched)

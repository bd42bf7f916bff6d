"""Domain helper functions used by the rule sets' actions and tests.

These are the "support functions" of the paper's specifications: rules
call them by name (``join_card``, ``has_usable_index``, ``sort_attr``…).
Pure helpers manipulate predicates and attribute lists; contextual
helpers receive the :class:`~repro.volcano.search.OptimizerContext`
first and consult the catalog and statistics.

Predicate values stored in descriptors use ``DONT_CARE`` for "no
predicate"; every helper normalizes that to the TRUE predicate.
"""

from __future__ import annotations

from typing import Any

from repro.algebra.properties import DONT_CARE
from repro.catalog import predicates as preds
from repro.catalog.statistics import (
    indexable_conjuncts,
    join_selectivity,
    selection_selectivity,
)
from repro.optimizers import costmodel
from repro.prairie.helpers import HelperRegistry, default_helpers

# Memo tables for the pure predicate helpers below.  Rule actions call
# these on every application with a handful of distinct predicates per
# query, and predicates are immutable/hashable by design, so memoization
# is safe.  Bounded: a full table is cleared and refilled, so a process
# serving ever-new queries keeps memoizing without growing.
_PURE_MEMO: dict = {}
_PURE_MEMO_LIMIT = 1 << 12


def _pure_memo_get(key):
    try:
        return _PURE_MEMO.get(key)
    except TypeError:
        return None


def _pure_memo_put(key, value):
    if len(_PURE_MEMO) >= _PURE_MEMO_LIMIT:
        _PURE_MEMO.clear()
    try:
        _PURE_MEMO[key] = value
    except TypeError:
        pass
    return value


def _pred(value: Any):
    """Normalize a descriptor predicate value (DONT_CARE → TRUE)."""
    if value is DONT_CARE or value is None:
        return preds.TRUE
    return value


def _canon(pred):
    """Canonicalize a conjunction by sorting its atoms.

    Predicates are operator arguments and therefore part of memo-
    expression identity; two rule-derivation orders must produce the
    *identical* predicate value for duplicate elimination to unify them.
    Single comparisons pass through; conjunctions get a stable atom order.
    """
    atoms = preds.conjuncts(pred)
    if len(atoms) <= 1:
        return pred
    hit = _pure_memo_get(("canon", pred))
    if hit is not None:
        return hit
    return _pure_memo_put(
        ("canon", pred), preds.conjoin(*sorted(atoms, key=str))
    )


# ---------------------------------------------------------------------------
# Pure predicate/attribute helpers
# ---------------------------------------------------------------------------


def conjoin_preds(a: Any, b: Any):
    """AND of two (possibly DONT_CARE) predicates, canonically ordered."""
    pa, pb = _pred(a), _pred(b)
    key = ("conj", pa, pb)
    hit = _pure_memo_get(key)
    if hit is not None:
        return hit
    return _pure_memo_put(key, _canon(preds.conjoin(pa, pb)))


def _split(pred: Any, attrs: Any):
    """Memoized (inside, outside) split of a conjunction by attribute set."""
    p, a = _pred(pred), tuple(attrs)
    key = ("split", p, a)
    hit = _pure_memo_get(key)
    if hit is not None:
        return hit
    inside, outside = preds.split_by_attributes(p, a)
    return _pure_memo_put(key, (_canon(inside), _canon(outside)))


def pred_within(pred: Any, attrs: Any):
    """Conjuncts whose attributes are all contained in ``attrs``."""
    return _split(pred, attrs)[0]


def pred_remainder(pred: Any, attrs: Any):
    """Conjuncts referencing at least one attribute outside ``attrs``."""
    return _split(pred, attrs)[1]


def pred_nonempty(pred: Any) -> bool:
    """True when the predicate has at least one conjunct."""
    return bool(preds.conjuncts(_pred(pred)))


def pred_mentions(pred: Any, attr: Any) -> bool:
    """True when the predicate references the attribute."""
    return attr in preds.attributes_of(_pred(pred))


def has_equijoin(pred: Any) -> bool:
    """True when some conjunct is of the form ``attr = attr``."""
    return any(c.is_equijoin for c in preds.conjuncts(_pred(pred)))


def sort_attr(pred: Any, attrs: Any):
    """The side of the first equi-join conjunct lying within ``attrs``.

    This is the attribute a sort-based join wants its input ordered by;
    DONT_CARE when the predicate has no usable equi-join conjunct.
    """
    attr_set = set(attrs) if attrs is not DONT_CARE else set()
    for left, right in preds.equality_pairs(_pred(pred)):
        if left in attr_set:
            return left
        if right in attr_set:
            return right
    return DONT_CARE


# ---------------------------------------------------------------------------
# Contextual (catalog-consulting) helpers
# ---------------------------------------------------------------------------


def join_card(ctx: Any, n1: Any, n2: Any, pred: Any) -> float:
    """Estimated join output cardinality (rounded canonically)."""
    sel = join_selectivity(ctx.catalog, _pred(pred))
    return costmodel.round_estimate(float(n1) * float(n2) * sel)


def filter_card(ctx: Any, n: Any, pred: Any) -> float:
    """Estimated selection output cardinality (rounded canonically)."""
    sel = selection_selectivity(ctx.catalog, _pred(pred))
    return costmodel.round_estimate(float(n) * sel)


def scan_cost(ctx: Any, file_name: str) -> float:
    """Sequential scan cost of a stored file."""
    return costmodel.file_scan_cost(ctx.catalog[file_name])


def has_usable_index(ctx: Any, file_name: str, pred: Any) -> bool:
    """True when the file has an index matched by an equality conjunct.

    This mirrors the paper's experimental setup (Section 4.3): indices
    matter exactly when the selection predicate references the indexed
    attribute.
    """
    return bool(indexable_conjuncts(ctx.catalog, file_name, _pred(pred)))


def index_order(ctx: Any, file_name: str, pred: Any):
    """The attribute order an index scan of the file would deliver."""
    matched = indexable_conjuncts(ctx.catalog, file_name, _pred(pred))
    if not matched:
        return DONT_CARE
    atom = matched[0]
    if isinstance(atom.left, preds.AttrRef):
        return atom.left.name
    return atom.right.name  # type: ignore[union-attr]


def index_scan_cost(ctx: Any, file_name: str, pred: Any) -> float:
    """Cost of probing the matching index and fetching qualifying rows."""
    info = ctx.catalog[file_name]
    matched = indexable_conjuncts(ctx.catalog, file_name, _pred(pred))
    sel = 1.0
    for atom in matched:
        from repro.catalog.statistics import comparison_selectivity

        sel *= comparison_selectivity(ctx.catalog, atom)
    matching = info.cardinality * sel
    return costmodel.index_scan_cost(info, matching)


def pred_conjunct_count(pred: Any) -> int:
    """Number of atomic conjuncts in the predicate."""
    return len(preds.conjuncts(_pred(pred)))


def pred_first(pred: Any):
    """The first conjunct of the predicate in canonical order."""
    atoms = preds.conjuncts(_canon(_pred(pred)))
    return atoms[0] if atoms else preds.TRUE


def pred_rest(pred: Any):
    """The predicate minus its canonical first conjunct."""
    atoms = preds.conjuncts(_canon(_pred(pred)))
    return _canon(preds.conjoin(*atoms[1:])) if len(atoms) > 1 else preds.TRUE


_MISS = object()


def _reference_target(ctx: Any, attr: str) -> "str | None":
    """Referenced class name when ``attr`` is a reference attribute.

    Memoized on the catalog's statistics cache (dropped on mutation):
    ``StoredFileInfo.references`` builds a fresh mapping per call, and
    MAT-rule conditions probe the same few attributes constantly.
    """
    cache = ctx.catalog._stats_cache
    key = ("ref", attr)
    hit = cache.get(key, _MISS)
    if hit is not _MISS:
        return hit
    try:
        owner = ctx.catalog.file_of_attribute(attr)
    except Exception:  # noqa: BLE001 - unknown attribute → not a reference
        target = None
    else:
        target = owner.references.get(attr)
    cache[key] = target
    return target


def mat_attrs(ctx: Any, attr: str):
    """Attributes gained by materializing reference attribute ``attr``."""
    cache = ctx.catalog._stats_cache
    key = ("mat_attrs", attr)
    hit = cache.get(key)
    if hit is not None:
        return hit
    target = _reference_target(ctx, attr)
    result = () if target is None else tuple(ctx.catalog[target].attributes)
    cache[key] = result
    return result


def mat_size(ctx: Any, attr: str) -> float:
    """Tuple-size increase from materializing reference attribute ``attr``."""
    cache = ctx.catalog._stats_cache
    key = ("mat_size", attr)
    hit = cache.get(key)
    if hit is not None:
        return hit
    target = _reference_target(ctx, attr)
    result = 0.0 if target is None else float(ctx.catalog[target].tuple_size)
    cache[key] = result
    return result


def is_reference_attr(ctx: Any, attr: Any) -> bool:
    """True when ``attr`` is a reference attribute of some class."""
    if attr is DONT_CARE or attr is None:
        return False
    return _reference_target(ctx, str(attr)) is not None


def is_pointer_joinable(ctx: Any, pred: Any, outer_attrs: Any, inner_attrs: Any) -> bool:
    """True when some equi-join conjunct follows a reference attribute.

    A pointer join dereferences a reference attribute of the outer stream
    directly into the inner stream's class: it applies when an equi-join
    pair (l, r) has l a reference attribute available in the outer stream
    whose target class owns r (or vice versa is *not* allowed — pointer
    joins are directional).
    """
    outer = set(outer_attrs) if outer_attrs is not DONT_CARE else set()
    inner = set(inner_attrs) if inner_attrs is not DONT_CARE else set()
    for left, right in preds.equality_pairs(_pred(pred)):
        if left in outer and right in inner:
            target = _reference_target(ctx, left)
        elif right in outer and left in inner:
            target = _reference_target(ctx, right)
        else:
            continue
        if target is None:
            continue
        target_attrs = set(ctx.catalog[target].attributes)
        if (right if left in outer else left) in target_attrs:
            return True
    return False


def has_any_index(ctx: Any, file_name: str) -> bool:
    """True when the stored file has at least one index."""
    return bool(ctx.catalog[file_name].indices)


def any_index_order(ctx: Any, file_name: str):
    """The order a full scan of the file's first index delivers."""
    indices = ctx.catalog[file_name].indices
    return indices[0].attribute if indices else DONT_CARE


def full_index_scan_cost(ctx: Any, file_name: str) -> float:
    """Cost of reading every row through an index (ordered full scan)."""
    info = ctx.catalog[file_name]
    return costmodel.index_scan_cost(info, float(info.cardinality))


def unnest_card(n: Any) -> float:
    """Output cardinality of UNNEST: average set size of 2 per input row."""
    return costmodel.round_estimate(float(n) * 2.0)


def owner_of_attr(ctx: Any, attr: str) -> str:
    """Name of the stored file declaring ``attr`` (workload catalogs keep
    attribute names globally unique)."""
    return ctx.catalog.file_of_attribute(attr).name


def round_est(value: Any) -> float:
    """Expose canonical rounding to rule text (pure)."""
    return costmodel.round_estimate(float(value))


def domain_helpers() -> HelperRegistry:
    """The full registry for the paper's rule sets: built-ins + domain."""
    registry = default_helpers()
    registry.register("conjoin_preds", conjoin_preds)
    registry.register("pred_within", pred_within)
    registry.register("pred_remainder", pred_remainder)
    registry.register("pred_nonempty", pred_nonempty)
    registry.register("pred_mentions", pred_mentions)
    registry.register("has_equijoin", has_equijoin)
    registry.register("sort_attr", sort_attr)
    registry.register("round_est", round_est)
    registry.register("pred_conjunct_count", pred_conjunct_count)
    registry.register("pred_first", pred_first)
    registry.register("pred_rest", pred_rest)
    registry.register("unnest_card", unnest_card)
    registry.register("join_card", join_card, pure=False)
    registry.register("filter_card", filter_card, pure=False)
    registry.register("scan_cost", scan_cost, pure=False)
    registry.register("has_usable_index", has_usable_index, pure=False)
    registry.register("index_order", index_order, pure=False)
    registry.register("index_scan_cost", index_scan_cost, pure=False)
    registry.register("mat_attrs", mat_attrs, pure=False)
    registry.register("mat_size", mat_size, pure=False)
    registry.register("is_reference_attr", is_reference_attr, pure=False)
    registry.register("is_pointer_joinable", is_pointer_joinable, pure=False)
    registry.register("has_any_index", has_any_index, pure=False)
    registry.register("any_index_order", any_index_order, pure=False)
    registry.register("full_index_scan_cost", full_index_scan_cost, pure=False)
    registry.register("owner_of_attr", owner_of_attr, pure=False)
    return registry

"""The Open-OODB object-algebra optimizer, hand-coded in Volcano.

The baseline of the paper's Section 4 experiments: the same optimizer as
:mod:`repro.optimizers.oodb`, written directly against the Volcano model
with everything P2V automates done by hand — 17 trans_rules, 9
impl_rules (each with its four support functions), one explicitly
declared sort enforcer, and a hand-maintained property classification.

Every function here mirrors one section of the Prairie specification
statement for statement, so the two rule sets are behaviourally
identical; the differential tests assert equal plan costs, equivalence
class counts, and memo sizes on every query family.

Reading this module next to ``oodb.py``'s DSL text *is* the paper's
argument: the Prairie form keeps each rule's property transformations in
one place, while the Volcano form fragments them across per-algorithm
functions and bakes the physical/argument classification into every
``get_input_pv``/``derive_phy_prop`` pair.
"""

from __future__ import annotations

import math

from repro.algebra.operations import Algorithm, Operator
from repro.algebra.patterns import PatternNode, PatternVar
from repro.algebra.properties import DONT_CARE
from repro.optimizers import helpers as H
from repro.optimizers.helpers import domain_helpers
from repro.optimizers.schema import make_schema
from repro.prairie.actions import ActionEnv
from repro.prairie.helpers import union
from repro.volcano.model import Enforcer, ImplRule, TransRule, VolcanoRuleSet

PHYSICAL_PROPERTIES = ("tuple_order",)
# Stream properties the trans_rules compute from their inputs' own values
# and no cost function reads: not part of m-expr identity.
DERIVED_PROPERTIES = ("attributes", "tuple_size")
COST_PROPERTY = "cost"
NO_REQUIREMENT = (DONT_CARE,)

CPU = 0.01
POINTER_CHASE = 1.0
UNNEST_CPU = 0.02
SORT_FACTOR = 0.02


def _true(env: ActionEnv) -> bool:
    return True


def _v(env: ActionEnv, name: str) -> dict:
    return env.descriptors[name]._values


def _no_input_pv(env: ActionEnv, index: int):
    return NO_REQUIREMENT


# ===========================================================================
# trans_rules 1-2: join commutativity / associativity
# ===========================================================================


def join_commute_appl(env: ActionEnv) -> None:
    d2 = _v(env, "D2")
    d2.update(_v(env, "D1"))
    d2["attributes"] = union(
        _v(env, "DL2")["attributes"], _v(env, "DL1")["attributes"]
    )


def join_assoc_cond(env: ActionEnv) -> bool:
    all_preds = H.conjoin_preds(
        _v(env, "D1")["join_predicate"], _v(env, "D2")["join_predicate"]
    )
    inner_attrs = union(_v(env, "DB")["attributes"], _v(env, "DC")["attributes"])
    inner = H.pred_within(all_preds, inner_attrs)
    _v(env, "D3")["join_predicate"] = inner
    return H.pred_nonempty(inner) and H.pred_nonempty(
        H.pred_remainder(all_preds, inner_attrs)
    )


def join_assoc_appl(env: ActionEnv) -> None:
    ctx = env.context
    all_preds = H.conjoin_preds(
        _v(env, "D1")["join_predicate"], _v(env, "D2")["join_predicate"]
    )
    db, dc = _v(env, "DB"), _v(env, "DC")
    inner_attrs = union(db["attributes"], dc["attributes"])
    d3 = _v(env, "D3")
    d3["attributes"] = inner_attrs
    d3["num_records"] = H.join_card(
        ctx, db["num_records"], dc["num_records"], d3["join_predicate"]
    )
    d3["tuple_size"] = db["tuple_size"] + dc["tuple_size"]
    d4 = _v(env, "D4")
    d4.update(_v(env, "D2"))
    d4["join_predicate"] = H.pred_remainder(all_preds, inner_attrs)
    d4["attributes"] = union(_v(env, "DA")["attributes"], d3["attributes"])


# ===========================================================================
# trans_rules 3-7: MAT placement
# ===========================================================================


def mat_push_left_cond(env: ActionEnv) -> bool:
    return _v(env, "D2")["mat_attribute"] in _v(env, "DA")["attributes"]


def mat_push_left_appl(env: ActionEnv) -> None:
    ctx = env.context
    da, db = _v(env, "DA"), _v(env, "DB")
    attr = _v(env, "D2")["mat_attribute"]
    d3 = _v(env, "D3")
    d3["mat_attribute"] = attr
    d3["attributes"] = union(da["attributes"], H.mat_attrs(ctx, attr))
    d3["num_records"] = da["num_records"]
    d3["tuple_size"] = da["tuple_size"] + H.mat_size(ctx, attr)
    d4 = _v(env, "D4")
    d4.update(_v(env, "D1"))
    d4["attributes"] = union(d3["attributes"], db["attributes"])
    d4["num_records"] = H.join_card(
        ctx, d3["num_records"], db["num_records"], d4["join_predicate"]
    )
    d4["tuple_size"] = d3["tuple_size"] + db["tuple_size"]


def mat_push_right_cond(env: ActionEnv) -> bool:
    return _v(env, "D2")["mat_attribute"] in _v(env, "DB")["attributes"]


def mat_push_right_appl(env: ActionEnv) -> None:
    ctx = env.context
    da, db = _v(env, "DA"), _v(env, "DB")
    attr = _v(env, "D2")["mat_attribute"]
    d3 = _v(env, "D3")
    d3["mat_attribute"] = attr
    d3["attributes"] = union(db["attributes"], H.mat_attrs(ctx, attr))
    d3["num_records"] = db["num_records"]
    d3["tuple_size"] = db["tuple_size"] + H.mat_size(ctx, attr)
    d4 = _v(env, "D4")
    d4.update(_v(env, "D1"))
    d4["attributes"] = union(da["attributes"], d3["attributes"])
    d4["num_records"] = H.join_card(
        ctx, da["num_records"], d3["num_records"], d4["join_predicate"]
    )
    d4["tuple_size"] = da["tuple_size"] + d3["tuple_size"]


def mat_pull_cond(env: ActionEnv) -> bool:
    pre_mat_attrs = union(_v(env, "DA")["attributes"], _v(env, "DB")["attributes"])
    return not H.pred_nonempty(
        H.pred_remainder(_v(env, "D2")["join_predicate"], pre_mat_attrs)
    )


def mat_pull_appl(env: ActionEnv) -> None:
    ctx = env.context
    da, db = _v(env, "DA"), _v(env, "DB")
    d2 = _v(env, "D2")
    d3 = _v(env, "D3")
    d3["join_predicate"] = d2["join_predicate"]
    d3["attributes"] = union(da["attributes"], db["attributes"])
    d3["num_records"] = H.join_card(
        ctx, da["num_records"], db["num_records"], d2["join_predicate"]
    )
    d3["tuple_size"] = da["tuple_size"] + db["tuple_size"]
    d4 = _v(env, "D4")
    d4.update(d2)
    d4["join_predicate"] = DONT_CARE
    d4["mat_attribute"] = _v(env, "D1")["mat_attribute"]
    d4["attributes"] = union(
        d3["attributes"], H.mat_attrs(ctx, d4["mat_attribute"])
    )
    d4["num_records"] = d3["num_records"]
    d4["tuple_size"] = d3["tuple_size"] + H.mat_size(ctx, d4["mat_attribute"])


def mat_mat_commute_cond(env: ActionEnv) -> bool:
    outer_attr = _v(env, "D2")["mat_attribute"]
    return (
        outer_attr in _v(env, "DA")["attributes"]
        and outer_attr != _v(env, "D1")["mat_attribute"]
    )


def mat_mat_commute_appl(env: ActionEnv) -> None:
    ctx = env.context
    da = _v(env, "DA")
    outer_attr = _v(env, "D2")["mat_attribute"]
    inner_attr = _v(env, "D1")["mat_attribute"]
    d3 = _v(env, "D3")
    d3["mat_attribute"] = outer_attr
    d3["attributes"] = union(da["attributes"], H.mat_attrs(ctx, outer_attr))
    d3["num_records"] = da["num_records"]
    d3["tuple_size"] = da["tuple_size"] + H.mat_size(ctx, outer_attr)
    d4 = _v(env, "D4")
    d4.update(_v(env, "D2"))
    d4["mat_attribute"] = inner_attr
    d4["attributes"] = union(d3["attributes"], H.mat_attrs(ctx, inner_attr))
    d4["tuple_size"] = d3["tuple_size"] + H.mat_size(ctx, inner_attr)


# ===========================================================================
# trans_rules 8-9: MAT vs SELECT
# ===========================================================================


def mat_select_pull_appl(env: ActionEnv) -> None:
    ctx = env.context
    da = _v(env, "DA")
    attr = _v(env, "D2")["mat_attribute"]
    d3 = _v(env, "D3")
    d3["mat_attribute"] = attr
    d3["attributes"] = union(da["attributes"], H.mat_attrs(ctx, attr))
    d3["num_records"] = da["num_records"]
    d3["tuple_size"] = da["tuple_size"] + H.mat_size(ctx, attr)
    d4 = _v(env, "D4")
    d4.update(_v(env, "D2"))
    d4["mat_attribute"] = DONT_CARE
    d4["selection_predicate"] = _v(env, "D1")["selection_predicate"]
    d4["attributes"] = d3["attributes"]
    d4["num_records"] = H.filter_card(
        ctx, d3["num_records"], d4["selection_predicate"]
    )


def select_mat_push_cond(env: ActionEnv) -> bool:
    sel = _v(env, "D2")["selection_predicate"]
    return H.pred_nonempty(sel) and not H.pred_nonempty(
        H.pred_remainder(sel, _v(env, "DA")["attributes"])
    )


def select_mat_push_appl(env: ActionEnv) -> None:
    ctx = env.context
    da = _v(env, "DA")
    sel = _v(env, "D2")["selection_predicate"]
    d3 = _v(env, "D3")
    d3["selection_predicate"] = sel
    d3["attributes"] = da["attributes"]
    d3["num_records"] = H.filter_card(ctx, da["num_records"], sel)
    d3["tuple_size"] = da["tuple_size"]
    d4 = _v(env, "D4")
    d4.update(_v(env, "D1"))
    d4["num_records"] = d3["num_records"]
    d4["attributes"] = union(
        d3["attributes"], H.mat_attrs(ctx, d4["mat_attribute"])
    )


# ===========================================================================
# trans_rules 10-16: SELECT placement
# ===========================================================================


def select_split_cond(env: ActionEnv) -> bool:
    return H.pred_conjunct_count(_v(env, "D1")["selection_predicate"]) >= 2


def select_split_appl(env: ActionEnv) -> None:
    ctx = env.context
    da = _v(env, "DA")
    sel = _v(env, "D1")["selection_predicate"]
    rest = H.pred_rest(sel)
    d2 = _v(env, "D2")
    d2["selection_predicate"] = rest
    d2["attributes"] = da["attributes"]
    d2["num_records"] = H.filter_card(ctx, da["num_records"], rest)
    d2["tuple_size"] = da["tuple_size"]
    d3 = _v(env, "D3")
    d3.update(_v(env, "D1"))
    d3["selection_predicate"] = H.pred_first(sel)


def select_merge_appl(env: ActionEnv) -> None:
    ctx = env.context
    da = _v(env, "DA")
    combined = H.conjoin_preds(
        _v(env, "D1")["selection_predicate"], _v(env, "D2")["selection_predicate"]
    )
    d3 = _v(env, "D3")
    d3["selection_predicate"] = combined
    d3["attributes"] = da["attributes"]
    d3["num_records"] = H.filter_card(ctx, da["num_records"], combined)
    d3["tuple_size"] = da["tuple_size"]


def _select_join_push_cond(env: ActionEnv, side: str) -> bool:
    sel = _v(env, "D2")["selection_predicate"]
    return H.pred_nonempty(sel) and not H.pred_nonempty(
        H.pred_remainder(sel, _v(env, side)["attributes"])
    )


def select_join_push_left_cond(env: ActionEnv) -> bool:
    return _select_join_push_cond(env, "DA")


def select_join_push_left_appl(env: ActionEnv) -> None:
    ctx = env.context
    da, db = _v(env, "DA"), _v(env, "DB")
    sel = _v(env, "D2")["selection_predicate"]
    d3 = _v(env, "D3")
    d3["selection_predicate"] = sel
    d3["attributes"] = da["attributes"]
    d3["num_records"] = H.filter_card(ctx, da["num_records"], sel)
    d3["tuple_size"] = da["tuple_size"]
    d4 = _v(env, "D4")
    d4.update(_v(env, "D1"))
    d4["num_records"] = H.join_card(
        ctx, d3["num_records"], db["num_records"], d4["join_predicate"]
    )


def select_join_push_right_cond(env: ActionEnv) -> bool:
    return _select_join_push_cond(env, "DB")


def select_join_push_right_appl(env: ActionEnv) -> None:
    ctx = env.context
    da, db = _v(env, "DA"), _v(env, "DB")
    sel = _v(env, "D2")["selection_predicate"]
    d3 = _v(env, "D3")
    d3["selection_predicate"] = sel
    d3["attributes"] = db["attributes"]
    d3["num_records"] = H.filter_card(ctx, db["num_records"], sel)
    d3["tuple_size"] = db["tuple_size"]
    d4 = _v(env, "D4")
    d4.update(_v(env, "D1"))
    d4["num_records"] = H.join_card(
        ctx, da["num_records"], d3["num_records"], d4["join_predicate"]
    )


def select_join_pull_cond(env: ActionEnv) -> bool:
    return H.pred_nonempty(_v(env, "D1")["selection_predicate"])


def _select_join_pull_appl(env: ActionEnv) -> None:
    ctx = env.context
    da, db = _v(env, "DA"), _v(env, "DB")
    d2 = _v(env, "D2")
    d3 = _v(env, "D3")
    d3["join_predicate"] = d2["join_predicate"]
    d3["attributes"] = union(da["attributes"], db["attributes"])
    d3["num_records"] = H.join_card(
        ctx, da["num_records"], db["num_records"], d2["join_predicate"]
    )
    d3["tuple_size"] = da["tuple_size"] + db["tuple_size"]
    d4 = _v(env, "D4")
    d4.update(d2)
    d4["join_predicate"] = DONT_CARE
    d4["selection_predicate"] = _v(env, "D1")["selection_predicate"]
    d4["attributes"] = d3["attributes"]
    d4["num_records"] = H.filter_card(
        ctx, d3["num_records"], d4["selection_predicate"]
    )


def select_ret_merge_appl(env: ActionEnv) -> None:
    ctx = env.context
    combined = H.conjoin_preds(
        _v(env, "D1")["selection_predicate"], _v(env, "D2")["selection_predicate"]
    )
    d3 = _v(env, "D3")
    d3.update(_v(env, "D1"))
    d3["selection_predicate"] = combined
    d3["num_records"] = H.filter_card(
        ctx, _v(env, "DF")["num_records"], combined
    )


# ===========================================================================
# trans_rule 17: UNNEST
# ===========================================================================


def select_unnest_push_cond(env: ActionEnv) -> bool:
    sel = _v(env, "D2")["selection_predicate"]
    return H.pred_nonempty(sel) and not H.pred_mentions(
        sel, _v(env, "D1")["unnest_attribute"]
    )


def select_unnest_push_appl(env: ActionEnv) -> None:
    ctx = env.context
    da = _v(env, "DA")
    sel = _v(env, "D2")["selection_predicate"]
    d3 = _v(env, "D3")
    d3["selection_predicate"] = sel
    d3["attributes"] = da["attributes"]
    d3["num_records"] = H.filter_card(ctx, da["num_records"], sel)
    d3["tuple_size"] = da["tuple_size"]
    d4 = _v(env, "D4")
    d4.update(_v(env, "D1"))
    d4["num_records"] = H.unnest_card(d3["num_records"])


# ===========================================================================
# impl_rules: per-algorithm support-function clusters
# ===========================================================================

# -- File_scan / Index_scan (RET) ---------------------------------------------


def file_scan_do_any_good(env: ActionEnv) -> bool:
    d2 = _v(env, "D2")
    d2.update(_v(env, "D1"))
    d2["tuple_order"] = DONT_CARE
    return True


def ret_derive_phy_prop(env: ActionEnv):
    return (_v(env, "D2")["tuple_order"],)


def file_scan_cost(env: ActionEnv) -> float:
    cost = H.scan_cost(env.context, _v(env, "D1")["file_name"])
    _v(env, "D2")["cost"] = cost
    return cost


def index_scan_cond(env: ActionEnv) -> bool:
    d1 = _v(env, "D1")
    return H.has_usable_index(env.context, d1["file_name"], d1["selection_predicate"])


def index_scan_do_any_good(env: ActionEnv) -> bool:
    d1 = _v(env, "D1")
    d2 = _v(env, "D2")
    d2.update(d1)
    d2["tuple_order"] = H.index_order(
        env.context, d1["file_name"], d1["selection_predicate"]
    )
    return True


def index_scan_cost(env: ActionEnv) -> float:
    d1 = _v(env, "D1")
    cost = H.index_scan_cost(
        env.context, d1["file_name"], d1["selection_predicate"]
    )
    _v(env, "D2")["cost"] = cost
    return cost


def index_order_scan_cond(env: ActionEnv) -> bool:
    d1 = _v(env, "D1")
    return d1["tuple_order"] is not DONT_CARE and d1["tuple_order"] == (
        H.any_index_order(env.context, d1["file_name"])
    )


def index_order_scan_do_any_good(env: ActionEnv) -> bool:
    _v(env, "D2").update(_v(env, "D1"))
    return True


def index_order_scan_cost(env: ActionEnv) -> float:
    cost = H.full_index_scan_cost(env.context, _v(env, "D1")["file_name"])
    _v(env, "D2")["cost"] = cost
    return cost


# -- streaming unary algorithms: Filter, Projection, Mat_deref, Unnest_scan ---
#
# All four share the Volcano scaffolding (order pass-through to the
# input), differing only in cost — the fragmentation across functions
# that Prairie's per-rule form avoids.


def _streaming_do_any_good(env: ActionEnv) -> bool:
    d4 = _v(env, "D4")
    d4.update(_v(env, "D2"))
    d3 = _v(env, "D3")
    d3.update(_v(env, "D1"))
    d3["tuple_order"] = _v(env, "D2")["tuple_order"]
    return True


def _streaming_get_input_pv(env: ActionEnv, index: int):
    return (_v(env, "D3")["tuple_order"],)


def _streaming_derive_phy_prop(env: ActionEnv):
    return (_v(env, "D4")["tuple_order"],)


def filter_cost(env: ActionEnv) -> float:
    d3 = _v(env, "D3")
    cost = d3["cost"] + CPU * d3["num_records"]
    _v(env, "D4")["cost"] = cost
    return cost


projection_cost = filter_cost


def mat_deref_cost(env: ActionEnv) -> float:
    d3 = _v(env, "D3")
    cost = d3["cost"] + POINTER_CHASE * d3["num_records"]
    _v(env, "D4")["cost"] = cost
    return cost


def unnest_scan_cost(env: ActionEnv) -> float:
    d3 = _v(env, "D3")
    cost = d3["cost"] + UNNEST_CPU * d3["num_records"]
    _v(env, "D4")["cost"] = cost
    return cost


# -- Hash_join ------------------------------------------------------------------


def hash_join_cond(env: ActionEnv) -> bool:
    return H.has_equijoin(_v(env, "D3")["join_predicate"])


def hash_join_do_any_good(env: ActionEnv) -> bool:
    d4 = _v(env, "D4")
    d4.update(_v(env, "D3"))
    d4["tuple_order"] = DONT_CARE
    return True


def hash_join_derive_phy_prop(env: ActionEnv):
    return (_v(env, "D4")["tuple_order"],)


def hash_join_cost(env: ActionEnv) -> float:
    d1, d2 = _v(env, "D1"), _v(env, "D2")
    cost = (
        d1["cost"]
        + d2["cost"]
        + CPU * (d1["num_records"] + 2 * d2["num_records"])
    )
    _v(env, "D4")["cost"] = cost
    return cost


# -- Pointer_join ------------------------------------------------------------------


def pointer_join_cond(env: ActionEnv) -> bool:
    d3 = _v(env, "D3")
    return H.is_pointer_joinable(
        env.context,
        d3["join_predicate"],
        _v(env, "D1")["attributes"],
        _v(env, "D2")["attributes"],
    )


def pointer_join_do_any_good(env: ActionEnv) -> bool:
    d5 = _v(env, "D5")
    d5.update(_v(env, "D3"))
    d4 = _v(env, "D4")
    d4.update(_v(env, "D1"))
    d4["tuple_order"] = _v(env, "D3")["tuple_order"]
    return True


def pointer_join_get_input_pv(env: ActionEnv, index: int):
    if index == 0:
        return (_v(env, "D4")["tuple_order"],)
    return NO_REQUIREMENT


def pointer_join_derive_phy_prop(env: ActionEnv):
    return (_v(env, "D5")["tuple_order"],)


def pointer_join_cost(env: ActionEnv) -> float:
    d4 = _v(env, "D4")
    cost = d4["cost"] + POINTER_CHASE * d4["num_records"]
    _v(env, "D5")["cost"] = cost
    return cost


# -- Merge_sort (the explicit enforcer) ----------------------------------------------


def merge_sort_cond(env: ActionEnv) -> bool:
    d2 = _v(env, "D2")
    return (
        d2["tuple_order"] is not DONT_CARE
        and d2["tuple_order"] in d2["attributes"]
    )


def merge_sort_do_any_good(env: ActionEnv) -> bool:
    _v(env, "D3").update(_v(env, "D2"))
    return True


def merge_sort_derive_phy_prop(env: ActionEnv):
    return (_v(env, "D3")["tuple_order"],)


def merge_sort_cost(env: ActionEnv) -> float:
    d3 = _v(env, "D3")
    n = d3["num_records"]
    cost = _v(env, "D1")["cost"] + SORT_FACTOR * n * math.log2(max(n, 2.0))
    d3["cost"] = cost
    return cost


# ===========================================================================
# Assembly
# ===========================================================================


def _var(name: str, desc: "str | None" = None) -> PatternVar:
    return PatternVar(name, desc)


def _node(op: str, *inputs, desc: str) -> PatternNode:
    return PatternNode(op, tuple(inputs), desc)


def _trans(ruleset: VolcanoRuleSet) -> None:
    add = ruleset.add_trans_rule
    add(
        TransRule(
            "join_commute",
            _node("JOIN", _var("S1", "DL1"), _var("S2", "DL2"), desc="D1"),
            _node("JOIN", _var("S2"), _var("S1"), desc="D2"),
            _true,
            join_commute_appl,
        )
    )
    add(
        TransRule(
            "join_assoc",
            _node(
                "JOIN",
                _node("JOIN", _var("S1", "DA"), _var("S2", "DB"), desc="D1"),
                _var("S3", "DC"),
                desc="D2",
            ),
            _node(
                "JOIN",
                _var("S1"),
                _node("JOIN", _var("S2"), _var("S3"), desc="D3"),
                desc="D4",
            ),
            join_assoc_cond,
            join_assoc_appl,
        )
    )
    add(
        TransRule(
            "mat_push_join_left",
            _node(
                "MAT",
                _node("JOIN", _var("S1", "DA"), _var("S2", "DB"), desc="D1"),
                desc="D2",
            ),
            _node("JOIN", _node("MAT", _var("S1"), desc="D3"), _var("S2"), desc="D4"),
            mat_push_left_cond,
            mat_push_left_appl,
        )
    )
    add(
        TransRule(
            "mat_push_join_right",
            _node(
                "MAT",
                _node("JOIN", _var("S1", "DA"), _var("S2", "DB"), desc="D1"),
                desc="D2",
            ),
            _node("JOIN", _var("S1"), _node("MAT", _var("S2"), desc="D3"), desc="D4"),
            mat_push_right_cond,
            mat_push_right_appl,
        )
    )
    add(
        TransRule(
            "mat_pull_join_left",
            _node(
                "JOIN",
                _node("MAT", _var("S1", "DA"), desc="D1"),
                _var("S2", "DB"),
                desc="D2",
            ),
            _node("MAT", _node("JOIN", _var("S1"), _var("S2"), desc="D3"), desc="D4"),
            mat_pull_cond,
            mat_pull_appl,
        )
    )
    add(
        TransRule(
            "mat_pull_join_right",
            _node(
                "JOIN",
                _var("S1", "DA"),
                _node("MAT", _var("S2", "DB"), desc="D1"),
                desc="D2",
            ),
            _node("MAT", _node("JOIN", _var("S1"), _var("S2"), desc="D3"), desc="D4"),
            mat_pull_cond,
            mat_pull_appl,
        )
    )
    add(
        TransRule(
            "mat_mat_commute",
            _node("MAT", _node("MAT", _var("S1", "DA"), desc="D1"), desc="D2"),
            _node("MAT", _node("MAT", _var("S1"), desc="D3"), desc="D4"),
            mat_mat_commute_cond,
            mat_mat_commute_appl,
        )
    )
    add(
        TransRule(
            "mat_select_pull",
            _node("MAT", _node("SELECT", _var("S1", "DA"), desc="D1"), desc="D2"),
            _node("SELECT", _node("MAT", _var("S1"), desc="D3"), desc="D4"),
            _true,
            mat_select_pull_appl,
        )
    )
    add(
        TransRule(
            "select_mat_push",
            _node("SELECT", _node("MAT", _var("S1", "DA"), desc="D1"), desc="D2"),
            _node("MAT", _node("SELECT", _var("S1"), desc="D3"), desc="D4"),
            select_mat_push_cond,
            select_mat_push_appl,
        )
    )
    add(
        TransRule(
            "select_split",
            _node("SELECT", _var("S1", "DA"), desc="D1"),
            _node("SELECT", _node("SELECT", _var("S1"), desc="D2"), desc="D3"),
            select_split_cond,
            select_split_appl,
        )
    )
    add(
        TransRule(
            "select_merge",
            _node("SELECT", _node("SELECT", _var("S1", "DA"), desc="D1"), desc="D2"),
            _node("SELECT", _var("S1"), desc="D3"),
            _true,
            select_merge_appl,
        )
    )
    add(
        TransRule(
            "select_join_push_left",
            _node(
                "SELECT",
                _node("JOIN", _var("S1", "DA"), _var("S2", "DB"), desc="D1"),
                desc="D2",
            ),
            _node(
                "JOIN", _node("SELECT", _var("S1"), desc="D3"), _var("S2"), desc="D4"
            ),
            select_join_push_left_cond,
            select_join_push_left_appl,
        )
    )
    add(
        TransRule(
            "select_join_push_right",
            _node(
                "SELECT",
                _node("JOIN", _var("S1", "DA"), _var("S2", "DB"), desc="D1"),
                desc="D2",
            ),
            _node(
                "JOIN", _var("S1"), _node("SELECT", _var("S2"), desc="D3"), desc="D4"
            ),
            select_join_push_right_cond,
            select_join_push_right_appl,
        )
    )
    add(
        TransRule(
            "select_join_pull_left",
            _node(
                "JOIN",
                _node("SELECT", _var("S1", "DA"), desc="D1"),
                _var("S2", "DB"),
                desc="D2",
            ),
            _node(
                "SELECT", _node("JOIN", _var("S1"), _var("S2"), desc="D3"), desc="D4"
            ),
            select_join_pull_cond,
            _select_join_pull_appl,
        )
    )
    add(
        TransRule(
            "select_join_pull_right",
            _node(
                "JOIN",
                _var("S1", "DA"),
                _node("SELECT", _var("S2", "DB"), desc="D1"),
                desc="D2",
            ),
            _node(
                "SELECT", _node("JOIN", _var("S1"), _var("S2"), desc="D3"), desc="D4"
            ),
            select_join_pull_cond,
            _select_join_pull_appl,
        )
    )
    add(
        TransRule(
            "select_ret_merge",
            _node("SELECT", _node("RET", _var("F", "DF"), desc="D1"), desc="D2"),
            _node("RET", _var("F"), desc="D3"),
            _true,
            select_ret_merge_appl,
        )
    )
    add(
        TransRule(
            "select_unnest_push",
            _node("SELECT", _node("UNNEST", _var("S1", "DA"), desc="D1"), desc="D2"),
            _node("UNNEST", _node("SELECT", _var("S1"), desc="D3"), desc="D4"),
            select_unnest_push_cond,
            select_unnest_push_appl,
        )
    )


def build_oodb_volcano() -> VolcanoRuleSet:
    """Assemble the hand-coded Volcano object-algebra rule set."""
    schema = make_schema()
    argument = tuple(
        name
        for name in schema.names
        if name not in PHYSICAL_PROPERTIES
        and name not in DERIVED_PROPERTIES
        and name != COST_PROPERTY
    )
    ruleset = VolcanoRuleSet(
        name="oodb (hand-coded Volcano)",
        schema=schema,
        helpers=domain_helpers(),
        physical_properties=PHYSICAL_PROPERTIES,
        argument_properties=argument,
        cost_property=COST_PROPERTY,
        provenance="hand-coded",
        derived_properties=DERIVED_PROPERTIES,
    )

    for op in (
        Operator.on_file("RET"),
        Operator.streams("SELECT", 1),
        Operator.streams("PROJECT", 1),
        Operator.streams("JOIN", 2),
        Operator.streams("UNNEST", 1),
        Operator.streams("MAT", 1),
    ):
        ruleset.declare_operator(op)

    file_scan = ruleset.declare_algorithm(Algorithm.on_file("File_scan"))
    index_scan = ruleset.declare_algorithm(Algorithm.on_file("Index_scan"))
    filter_alg = ruleset.declare_algorithm(Algorithm.streams("Filter", 1))
    projection = ruleset.declare_algorithm(Algorithm.streams("Projection", 1))
    hash_join = ruleset.declare_algorithm(Algorithm.streams("Hash_join", 2))
    pointer_join = ruleset.declare_algorithm(Algorithm.streams("Pointer_join", 2))
    mat_deref = ruleset.declare_algorithm(Algorithm.streams("Mat_deref", 1))
    unnest_scan = ruleset.declare_algorithm(Algorithm.streams("Unnest_scan", 1))
    merge_sort = ruleset.declare_algorithm(Algorithm.streams("Merge_sort", 1))

    _trans(ruleset)

    def impl(name, operator, algorithm, lhs, rhs, cond, good, ipv, derive, cost):
        ruleset.add_impl_rule(
            ImplRule(
                name=name,
                operator=operator,
                algorithm=algorithm,
                lhs=lhs,
                rhs=rhs,
                cond_code=cond,
                do_any_good=good,
                get_input_pv=ipv,
                derive_phy_prop=derive,
                cost=cost,
            )
        )

    ret_lhs = _node("RET", _var("F", "DF"), desc="D1")
    impl(
        "ret_file_scan", "RET", file_scan,
        ret_lhs, _node("File_scan", _var("F"), desc="D2"),
        _true, file_scan_do_any_good, _no_input_pv, ret_derive_phy_prop,
        file_scan_cost,
    )
    impl(
        "ret_index_scan", "RET", index_scan,
        ret_lhs, _node("Index_scan", _var("F"), desc="D2"),
        index_scan_cond, index_scan_do_any_good, _no_input_pv,
        ret_derive_phy_prop, index_scan_cost,
    )
    impl(
        "ret_index_order_scan", "RET", index_scan,
        ret_lhs, _node("Index_scan", _var("F"), desc="D2"),
        index_order_scan_cond, index_order_scan_do_any_good, _no_input_pv,
        ret_derive_phy_prop, index_order_scan_cost,
    )

    unary = lambda op, d1="D1", d2="D2": _node(op, _var("S1", d1), desc=d2)  # noqa: E731
    impl(
        "select_filter", "SELECT", filter_alg,
        unary("SELECT"), _node("Filter", _var("S1", "D3"), desc="D4"),
        _true, _streaming_do_any_good, _streaming_get_input_pv,
        _streaming_derive_phy_prop, filter_cost,
    )
    impl(
        "project_projection", "PROJECT", projection,
        unary("PROJECT"), _node("Projection", _var("S1", "D3"), desc="D4"),
        _true, _streaming_do_any_good, _streaming_get_input_pv,
        _streaming_derive_phy_prop, projection_cost,
    )
    join_lhs = _node("JOIN", _var("S1", "D1"), _var("S2", "D2"), desc="D3")
    impl(
        "join_hash", "JOIN", hash_join,
        join_lhs, _node("Hash_join", _var("S1"), _var("S2"), desc="D4"),
        hash_join_cond, hash_join_do_any_good, _no_input_pv,
        hash_join_derive_phy_prop, hash_join_cost,
    )
    impl(
        "join_pointer", "JOIN", pointer_join,
        join_lhs, _node("Pointer_join", _var("S1", "D4"), _var("S2"), desc="D5"),
        pointer_join_cond, pointer_join_do_any_good, pointer_join_get_input_pv,
        pointer_join_derive_phy_prop, pointer_join_cost,
    )
    impl(
        "mat_deref", "MAT", mat_deref,
        unary("MAT"), _node("Mat_deref", _var("S1", "D3"), desc="D4"),
        _true, _streaming_do_any_good, _streaming_get_input_pv,
        _streaming_derive_phy_prop, mat_deref_cost,
    )
    impl(
        "unnest_scan", "UNNEST", unnest_scan,
        unary("UNNEST"), _node("Unnest_scan", _var("S1", "D3"), desc="D4"),
        _true, _streaming_do_any_good, _streaming_get_input_pv,
        _streaming_derive_phy_prop, unnest_scan_cost,
    )

    ruleset.add_enforcer(
        Enforcer(
            name="sort_enforcer",
            operator="SORT",
            algorithm=merge_sort,
            lhs=_node("SORT", _var("S1", "D1"), desc="D2"),
            rhs=_node("Merge_sort", _var("S1"), desc="D3"),
            cond_code=merge_sort_cond,
            do_any_good=merge_sort_do_any_good,
            get_input_pv=_no_input_pv,
            derive_phy_prop=merge_sort_derive_phy_prop,
            cost=merge_sort_cost,
        )
    )
    ruleset.validate()
    return ruleset

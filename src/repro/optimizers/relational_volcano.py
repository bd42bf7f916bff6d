"""The centralized relational optimizer, hand-coded in Volcano.

This module is the paper's baseline methodology made concrete: the same
optimizer as :mod:`repro.optimizers.relational`, but written directly
against the Volcano model — which means the *user* must do by hand
everything P2V automates:

* classify the descriptor properties (``tuple_order`` is physical,
  ``cost`` is the cost, everything else is an operator/algorithm
  argument) — and keep that classification consistent as rules evolve;
* declare the sort enforcer explicitly (there is no SORT operator and no
  Null algorithm here — those are Prairie concepts);
* write the four support functions per algorithm (``do_any_good``,
  ``get_input_pv``, ``derive_phy_prop``, ``cost``), fragmenting the
  property transformations that a Prairie I-rule keeps in one place.

The behaviour is *identical* to the P2V-generated rule set — same
plans, same costs, same memo growth — which is exactly the property the
paper's Figures 10–13 verify.
"""

from __future__ import annotations

import math

from repro.algebra.descriptors import Descriptor
from repro.algebra.operations import Algorithm, Operator
from repro.algebra.patterns import PatternNode, PatternVar
from repro.algebra.properties import DONT_CARE
from repro.optimizers import helpers as H
from repro.optimizers.helpers import domain_helpers
from repro.optimizers.relational import CPU, SORT_FACTOR
from repro.optimizers.schema import make_schema
from repro.prairie.actions import ActionEnv
from repro.prairie.helpers import union
from repro.volcano.model import Enforcer, ImplRule, TransRule, VolcanoRuleSet

# Hand-maintained property classification (P2V derives this automatically
# from the Prairie specification; here the user owns it, and the paper's
# point is that it silently changes as rules are added).
PHYSICAL_PROPERTIES = ("tuple_order",)
DERIVED_PROPERTIES = ("attributes", "tuple_size")
COST_PROPERTY = "cost"
NO_REQUIREMENT = (DONT_CARE,)


def _argument_properties(schema) -> tuple[str, ...]:
    return tuple(
        name
        for name in schema.names
        if name not in PHYSICAL_PROPERTIES
        and name not in DERIVED_PROPERTIES
        and name != COST_PROPERTY
    )


# ---------------------------------------------------------------------------
# trans_rules
# ---------------------------------------------------------------------------


def _commute_cond(env: ActionEnv) -> bool:
    return True


def _commute_appl(env: ActionEnv) -> None:
    d = env.descriptors
    d["D2"]._values.update(d["D1"]._values)
    d["D2"]._values["attributes"] = union(
        d["DL2"]._values["attributes"], d["DL1"]._values["attributes"]
    )


def _assoc_cond(env: ActionEnv) -> bool:
    d = env.descriptors
    all_preds = H.conjoin_preds(
        d["D1"]._values["join_predicate"], d["D2"]._values["join_predicate"]
    )
    inner_attrs = union(
        d["DB"]._values["attributes"], d["DC"]._values["attributes"]
    )
    inner = H.pred_within(all_preds, inner_attrs)
    d["D3"]._values["join_predicate"] = inner
    return H.pred_nonempty(inner) and H.pred_nonempty(
        H.pred_remainder(all_preds, inner_attrs)
    )


def _assoc_appl(env: ActionEnv) -> None:
    d = env.descriptors
    ctx = env.context
    all_preds = H.conjoin_preds(
        d["D1"]._values["join_predicate"], d["D2"]._values["join_predicate"]
    )
    inner_attrs = union(
        d["DB"]._values["attributes"], d["DC"]._values["attributes"]
    )
    d3 = d["D3"]._values
    d3["attributes"] = inner_attrs
    d3["num_records"] = H.join_card(
        ctx,
        d["DB"]._values["num_records"],
        d["DC"]._values["num_records"],
        d3["join_predicate"],
    )
    d3["tuple_size"] = d["DB"]._values["tuple_size"] + d["DC"]._values["tuple_size"]
    d4 = d["D4"]._values
    d4.update(d["D2"]._values)
    d4["join_predicate"] = H.pred_remainder(all_preds, inner_attrs)
    d4["attributes"] = union(d["DA"]._values["attributes"], d3["attributes"])


def _trans_rules() -> list[TransRule]:
    commute = TransRule(
        name="join_commute",
        lhs=PatternNode(
            "JOIN", (PatternVar("S1", "DL1"), PatternVar("S2", "DL2")), "D1"
        ),
        rhs=PatternNode("JOIN", (PatternVar("S2"), PatternVar("S1")), "D2"),
        cond_code=_commute_cond,
        appl_code=_commute_appl,
        doc="JOIN(S1,S2) == JOIN(S2,S1)",
    )
    assoc = TransRule(
        name="join_assoc",
        lhs=PatternNode(
            "JOIN",
            (
                PatternNode(
                    "JOIN", (PatternVar("S1", "DA"), PatternVar("S2", "DB")), "D1"
                ),
                PatternVar("S3", "DC"),
            ),
            "D2",
        ),
        rhs=PatternNode(
            "JOIN",
            (
                PatternVar("S1"),
                PatternNode("JOIN", (PatternVar("S2"), PatternVar("S3")), "D3"),
            ),
            "D4",
        ),
        cond_code=_assoc_cond,
        appl_code=_assoc_appl,
        doc="JOIN(JOIN(S1,S2),S3) == JOIN(S1,JOIN(S2,S3))",
    )
    return [commute, assoc]


# ---------------------------------------------------------------------------
# impl_rules: per-algorithm support-function clusters (the Volcano style)
# ---------------------------------------------------------------------------


def _true(env: ActionEnv) -> bool:
    return True


# -- File_scan ---------------------------------------------------------------


def file_scan_do_any_good(env: ActionEnv) -> bool:
    d = env.descriptors
    d["D2"]._values.update(d["D1"]._values)
    d["D2"]._values["tuple_order"] = DONT_CARE
    return True


def file_scan_get_input_pv(env: ActionEnv, index: int):
    return NO_REQUIREMENT


def file_scan_derive_phy_prop(env: ActionEnv):
    return (env.descriptors["D2"]._values["tuple_order"],)


def file_scan_cost(env: ActionEnv) -> float:
    d = env.descriptors
    cost = H.scan_cost(env.context, d["D1"]._values["file_name"])
    d["D2"]._values["cost"] = cost
    return cost


# -- Index_scan -----------------------------------------------------------------


def index_scan_cond(env: ActionEnv) -> bool:
    d1 = env.descriptors["D1"]._values
    return H.has_usable_index(
        env.context, d1["file_name"], d1["selection_predicate"]
    )


def index_scan_do_any_good(env: ActionEnv) -> bool:
    d = env.descriptors
    d1 = d["D1"]._values
    d["D2"]._values.update(d1)
    d["D2"]._values["tuple_order"] = H.index_order(
        env.context, d1["file_name"], d1["selection_predicate"]
    )
    return True


def index_scan_cost(env: ActionEnv) -> float:
    d = env.descriptors
    d1 = d["D1"]._values
    cost = H.index_scan_cost(
        env.context, d1["file_name"], d1["selection_predicate"]
    )
    d["D2"]._values["cost"] = cost
    return cost


# -- Nested_loops ------------------------------------------------------------------


def nested_loops_do_any_good(env: ActionEnv) -> bool:
    d = env.descriptors
    d["D5"]._values.update(d["D3"]._values)
    d["D4"]._values.update(d["D1"]._values)
    d["D4"]._values["tuple_order"] = d["D3"]._values["tuple_order"]
    return True


def nested_loops_get_input_pv(env: ActionEnv, index: int):
    if index == 0:
        return (env.descriptors["D4"]._values["tuple_order"],)
    return NO_REQUIREMENT


def nested_loops_derive_phy_prop(env: ActionEnv):
    return (env.descriptors["D5"]._values["tuple_order"],)


def nested_loops_cost(env: ActionEnv) -> float:
    d = env.descriptors
    d4, d2 = d["D4"]._values, d["D2"]._values
    cost = d4["cost"] + d4["num_records"] * d2["cost"]
    d["D5"]._values["cost"] = cost
    return cost


# -- Merge_join ----------------------------------------------------------------------


def merge_join_cond(env: ActionEnv) -> bool:
    d = env.descriptors
    d3 = d["D3"]._values
    if not H.has_equijoin(d3["join_predicate"]):
        return False
    outer = H.sort_attr(d3["join_predicate"], d["D1"]._values["attributes"])
    inner = H.sort_attr(d3["join_predicate"], d["D2"]._values["attributes"])
    return outer is not DONT_CARE and inner is not DONT_CARE


def merge_join_do_any_good(env: ActionEnv) -> bool:
    d = env.descriptors
    d3 = d["D3"]._values
    outer = H.sort_attr(d3["join_predicate"], d["D1"]._values["attributes"])
    inner = H.sort_attr(d3["join_predicate"], d["D2"]._values["attributes"])
    d["D6"]._values.update(d3)
    d["D4"]._values.update(d["D1"]._values)
    d["D5"]._values.update(d["D2"]._values)
    d["D4"]._values["tuple_order"] = outer
    d["D5"]._values["tuple_order"] = inner
    d["D6"]._values["tuple_order"] = outer
    return True


def merge_join_get_input_pv(env: ActionEnv, index: int):
    name = "D4" if index == 0 else "D5"
    return (env.descriptors[name]._values["tuple_order"],)


def merge_join_derive_phy_prop(env: ActionEnv):
    return (env.descriptors["D6"]._values["tuple_order"],)


def merge_join_cost(env: ActionEnv) -> float:
    d = env.descriptors
    d4, d5 = d["D4"]._values, d["D5"]._values
    cost = (
        d4["cost"]
        + d5["cost"]
        + CPU * (d4["num_records"] + d5["num_records"])
    )
    d["D6"]._values["cost"] = cost
    return cost


# -- Merge_sort (the explicit enforcer) -------------------------------------------------


def merge_sort_cond(env: ActionEnv) -> bool:
    d2 = env.descriptors["D2"]._values
    return (
        d2["tuple_order"] is not DONT_CARE
        and d2["tuple_order"] in d2["attributes"]
    )


def merge_sort_do_any_good(env: ActionEnv) -> bool:
    d = env.descriptors
    d["D3"]._values.update(d["D2"]._values)
    return True


def merge_sort_get_input_pv(env: ActionEnv, index: int):
    return NO_REQUIREMENT


def merge_sort_derive_phy_prop(env: ActionEnv):
    return (env.descriptors["D3"]._values["tuple_order"],)


def merge_sort_cost(env: ActionEnv) -> float:
    d = env.descriptors
    d3, d1 = d["D3"]._values, d["D1"]._values
    n = d3["num_records"]
    cost = d1["cost"] + SORT_FACTOR * n * math.log2(max(n, 2.0))
    d3["cost"] = cost
    return cost


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def build_relational_volcano() -> VolcanoRuleSet:
    """Assemble the hand-coded Volcano relational rule set."""
    schema = make_schema()
    ruleset = VolcanoRuleSet(
        name="relational (hand-coded Volcano)",
        schema=schema,
        helpers=domain_helpers(),
        physical_properties=PHYSICAL_PROPERTIES,
        argument_properties=_argument_properties(schema),
        cost_property=COST_PROPERTY,
        provenance="hand-coded",
        derived_properties=DERIVED_PROPERTIES,
    )

    ret = ruleset.declare_operator(Operator.on_file("RET"))
    join = ruleset.declare_operator(Operator.streams("JOIN", 2))
    file_scan = ruleset.declare_algorithm(Algorithm.on_file("File_scan"))
    index_scan = ruleset.declare_algorithm(Algorithm.on_file("Index_scan"))
    nested_loops = ruleset.declare_algorithm(Algorithm.streams("Nested_loops", 2))
    merge_join = ruleset.declare_algorithm(Algorithm.streams("Merge_join", 2))
    merge_sort = ruleset.declare_algorithm(Algorithm.streams("Merge_sort", 1))

    for rule in _trans_rules():
        ruleset.add_trans_rule(rule)

    ruleset.add_impl_rule(
        ImplRule(
            name="ret_file_scan",
            operator="RET",
            algorithm=file_scan,
            lhs=PatternNode("RET", (PatternVar("F", "DF"),), "D1"),
            rhs=PatternNode("File_scan", (PatternVar("F"),), "D2"),
            cond_code=_true,
            do_any_good=file_scan_do_any_good,
            get_input_pv=file_scan_get_input_pv,
            derive_phy_prop=file_scan_derive_phy_prop,
            cost=file_scan_cost,
        )
    )
    ruleset.add_impl_rule(
        ImplRule(
            name="ret_index_scan",
            operator="RET",
            algorithm=index_scan,
            lhs=PatternNode("RET", (PatternVar("F", "DF"),), "D1"),
            rhs=PatternNode("Index_scan", (PatternVar("F"),), "D2"),
            cond_code=index_scan_cond,
            do_any_good=index_scan_do_any_good,
            get_input_pv=file_scan_get_input_pv,
            derive_phy_prop=file_scan_derive_phy_prop,
            cost=index_scan_cost,
        )
    )
    ruleset.add_impl_rule(
        ImplRule(
            name="join_nested_loops",
            operator="JOIN",
            algorithm=nested_loops,
            lhs=PatternNode(
                "JOIN", (PatternVar("S1", "D1"), PatternVar("S2", "D2")), "D3"
            ),
            rhs=PatternNode(
                "Nested_loops", (PatternVar("S1", "D4"), PatternVar("S2")), "D5"
            ),
            cond_code=_true,
            do_any_good=nested_loops_do_any_good,
            get_input_pv=nested_loops_get_input_pv,
            derive_phy_prop=nested_loops_derive_phy_prop,
            cost=nested_loops_cost,
        )
    )
    ruleset.add_impl_rule(
        ImplRule(
            name="join_merge_join",
            operator="JOIN",
            algorithm=merge_join,
            lhs=PatternNode(
                "JOIN", (PatternVar("S1", "D1"), PatternVar("S2", "D2")), "D3"
            ),
            rhs=PatternNode(
                "Merge_join",
                (PatternVar("S1", "D4"), PatternVar("S2", "D5")),
                "D6",
            ),
            cond_code=merge_join_cond,
            do_any_good=merge_join_do_any_good,
            get_input_pv=merge_join_get_input_pv,
            derive_phy_prop=merge_join_derive_phy_prop,
            cost=merge_join_cost,
        )
    )
    ruleset.add_enforcer(
        Enforcer(
            name="sort_enforcer",
            operator="SORT",
            algorithm=merge_sort,
            lhs=PatternNode("SORT", (PatternVar("S1", "D1"),), "D2"),
            rhs=PatternNode("Merge_sort", (PatternVar("S1"),), "D3"),
            cond_code=merge_sort_cond,
            do_any_good=merge_sort_do_any_good,
            get_input_pv=merge_sort_get_input_pv,
            derive_phy_prop=merge_sort_derive_phy_prop,
            cost=merge_sort_cost,
        )
    )
    ruleset.validate()
    return ruleset

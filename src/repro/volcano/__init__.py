"""Volcano optimizer-generator substrate (reimplemented from scratch).

The paper uses the Volcano optimizer generator [Graefe 90] as its search
engine: Prairie rules are translated by P2V into Volcano's rule format
and compiled together with Volcano's top-down, memoizing search strategy.
This package reimplements the relevant Volcano machinery in Python:

* :mod:`repro.volcano.properties` — physical property vectors and the
  satisfaction relation used for top-down property propagation.
* :mod:`repro.volcano.memo` — the memo table of *equivalence classes*
  (groups) of logically equivalent expressions; Figure 14 of the paper
  counts these.
* :mod:`repro.volcano.patterns` — compiled rule application: one
  generated function per trans_rule that matches its left side against
  memo expressions and builds its right side into the memo.
* :mod:`repro.volcano.model` — trans_rules, impl_rules, enforcers, and
  the per-algorithm helper functions (``do_any_good``, ``cost``,
  ``get_input_pv``, ``derive_phy_prop``) of the Volcano model.
* :mod:`repro.volcano.search` — the top-down optimization strategy with
  memoized winners per (group, required-properties) pair and
  branch-and-bound pruning.
* :mod:`repro.volcano.plancache` — the cross-query plan cache: finished
  optimizations keyed by canonical tree fingerprint, required vector,
  rule set and search options, valid while the catalog's state token is
  unchanged, so a reused optimizer answers repeated queries without
  searching.
"""

from repro.volcano.properties import (
    PropertyVector,
    dont_care_vector,
    satisfies,
    vector_of,
)
from repro.volcano.memo import Group, Memo, MExpr
from repro.volcano.model import (
    Enforcer,
    ImplRule,
    TransRule,
    VolcanoRuleSet,
)
from repro.volcano.search import (
    OptimizationResult,
    OptimizerContext,
    SearchOptions,
    SearchStats,
    VolcanoOptimizer,
)
from repro.volcano.bottomup import BottomUpOptimizer
from repro.volcano.explain import (
    explain,
    explain_memo,
    explain_plan,
    explain_trace,
)
from repro.volcano.normalize import normalize_query, optimize_normalized
from repro.volcano.plancache import PlanCache, tree_fingerprint

__all__ = [
    "BottomUpOptimizer",
    "PlanCache",
    "tree_fingerprint",
    "SearchOptions",
    "explain",
    "explain_memo",
    "explain_plan",
    "explain_trace",
    "normalize_query",
    "optimize_normalized",
    "PropertyVector",
    "dont_care_vector",
    "satisfies",
    "vector_of",
    "Group",
    "Memo",
    "MExpr",
    "Enforcer",
    "ImplRule",
    "TransRule",
    "VolcanoRuleSet",
    "OptimizationResult",
    "OptimizerContext",
    "SearchStats",
    "VolcanoOptimizer",
]

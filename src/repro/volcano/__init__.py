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

from repro._lazy import lazy_exports

# ``explain`` names both a submodule and its main function: importing the
# submodule binds the module under that name, so the function is bound
# eagerly, after the submodule import, as it always was.
from repro.volcano.explain import (
    explain,
    explain_memo,
    explain_plan,
    explain_trace,
)

_EXPORTS = {
    "PropertyVector": "repro.volcano.properties",
    "dont_care_vector": "repro.volcano.properties",
    "satisfies": "repro.volcano.properties",
    "vector_of": "repro.volcano.properties",
    "Group": "repro.volcano.memo",
    "Memo": "repro.volcano.memo",
    "MExpr": "repro.volcano.memo",
    "Enforcer": "repro.volcano.model",
    "ImplRule": "repro.volcano.model",
    "TransRule": "repro.volcano.model",
    "VolcanoRuleSet": "repro.volcano.model",
    "OptimizationResult": "repro.volcano.search",
    "OptimizerContext": "repro.volcano.search",
    "SearchOptions": "repro.volcano.search",
    "SearchStats": "repro.volcano.search",
    "VolcanoOptimizer": "repro.volcano.search",
    "BottomUpOptimizer": "repro.volcano.bottomup",
    "normalize_query": "repro.volcano.normalize",
    "optimize_normalized": "repro.volcano.normalize",
    "PlanCache": "repro.volcano.plancache",
    "tree_fingerprint": "repro.volcano.plancache",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS, "explain", "explain_memo", "explain_plan", "explain_trace"]

"""Prairie: the paper's rule-specification framework (core contribution).

Layout:

* :mod:`repro.prairie.actions` — the rule action language: assignment
  statements over descriptors, tests, helper-function calls; both as an
  analysable AST (what the textual DSL produces) and as plain Python
  callables with declared write-sets.
* :mod:`repro.prairie.helpers` — the helper-function registry with the
  built-ins used throughout the paper (``union``, ``cardinality``, ``log``…).
* :mod:`repro.prairie.rules` — T-rules and I-rules (paper Sections 2.3–2.5).
* :mod:`repro.prairie.ruleset` — whole-rule-set container + validation.
* :mod:`repro.prairie.analysis` — P2V's automatic property classification
  and enforcer detection (paper Section 3.1).
* :mod:`repro.prairie.merge` — P2V's rule merging / enforcer-operator
  elimination (paper Section 3.3).
* :mod:`repro.prairie.translate` — the P2V pre-processor proper: Prairie
  rule set → Volcano rule set (paper Section 3).
* :mod:`repro.prairie.codegen` — textual Prairie / Volcano specification
  emitters (used by the Section 4.2 lines-of-code comparison).
* :mod:`repro.prairie.dsl` — lexer + parser for the textual Prairie rule
  language.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ActionBlock": "repro.prairie.actions",
    "ActionEnv": "repro.prairie.actions",
    "AssignDesc": "repro.prairie.actions",
    "AssignProp": "repro.prairie.actions",
    "BinOp": "repro.prairie.actions",
    "Call": "repro.prairie.actions",
    "DescRef": "repro.prairie.actions",
    "Lit": "repro.prairie.actions",
    "PropRef": "repro.prairie.actions",
    "PyAction": "repro.prairie.actions",
    "PyTest": "repro.prairie.actions",
    "Test": "repro.prairie.actions",
    "TestExpr": "repro.prairie.actions",
    "TRUE_TEST": "repro.prairie.actions",
    "UnaryOp": "repro.prairie.actions",
    "HelperRegistry": "repro.prairie.helpers",
    "default_helpers": "repro.prairie.helpers",
    "IRule": "repro.prairie.rules",
    "TRule": "repro.prairie.rules",
    "PrairieRuleSet": "repro.prairie.ruleset",
    "RuleSetAnalysis": "repro.prairie.analysis",
    "analyse": "repro.prairie.analysis",
    "translate_to_volcano": "repro.prairie.translate",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)

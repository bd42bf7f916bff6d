"""Prairie: a rule specification framework for query optimizers.

A from-scratch Python reproduction of *Prairie: A Rule Specification
Framework for Query Optimizers* (Dinesh Das and Don Batory, ICDE 1995 /
UT Austin TR 94-16), comprising:

* the **Prairie** algebraic rule framework — first-class operators and
  algorithms, uniform descriptors, T-rules and I-rules, the Null
  algorithm (:mod:`repro.prairie`), with both a textual specification
  language (:mod:`repro.prairie.dsl`) and a programmatic API
  (:mod:`repro.prairie.build`);
* the **P2V pre-processor** — enforcer detection, automatic property
  classification, rule merging, and code generation into the Volcano
  model (:func:`repro.prairie.translate.translate`);
* a reimplementation of the **Volcano optimizer generator**'s model and
  top-down, memoizing, branch-and-bound search engine
  (:mod:`repro.volcano`);
* two complete optimizers in both Prairie and hand-coded Volcano form —
  the centralized relational optimizer of the paper's Table 1 and the
  Open-OODB-scale object optimizer of Section 4 (:mod:`repro.optimizers`);
* an iterator **execution engine** so plans actually run
  (:mod:`repro.engine`), a catalog/statistics substrate
  (:mod:`repro.catalog`), the paper's workloads E1–E4 / Q1–Q8
  (:mod:`repro.workloads`), and the benchmark harness regenerating every
  table and figure (:mod:`repro.bench`).

Quickstart::

    from repro import (
        build_oodb_prairie, translate, VolcanoOptimizer, TreeBuilder,
    )
    from repro.workloads import make_query_instance

    prairie = build_oodb_prairie()            # the rule set, in Prairie
    volcano = translate(prairie).volcano      # P2V: Prairie -> Volcano
    catalog, tree = make_query_instance(prairie.schema, "Q5", n_joins=2)
    result = VolcanoOptimizer(volcano, catalog).optimize(tree)
    print(result.cost, result.equivalence_classes)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "Algorithm": "repro.algebra",
    "Descriptor": "repro.algebra",
    "DescriptorSchema": "repro.algebra",
    "DONT_CARE": "repro.algebra",
    "Expression": "repro.algebra",
    "Operator": "repro.algebra",
    "PropertyDef": "repro.algebra",
    "PropertyType": "repro.algebra",
    "StoredFileRef": "repro.algebra",
    "Catalog": "repro.catalog",
    "IndexInfo": "repro.catalog",
    "StoredFileInfo": "repro.catalog",
    "Database": "repro.engine.executor",
    "execute_plan": "repro.engine.executor",
    "naive_evaluate": "repro.engine.executor",
    "PrairieError": "repro.errors",
    "build_oodb_prairie": "repro.optimizers.oodb",
    "build_oodb_volcano": "repro.optimizers.oodb_volcano",
    "build_relational_prairie": "repro.optimizers.relational",
    "build_relational_volcano": "repro.optimizers.relational_volcano",
    "IRule": "repro.prairie.rules",
    "TRule": "repro.prairie.rules",
    "PrairieRuleSet": "repro.prairie.ruleset",
    "compile_spec": "repro.prairie.dsl.parser",
    "parse_spec": "repro.prairie.dsl.parser",
    "translate": "repro.prairie.translate",
    "translate_to_volcano": "repro.prairie.translate",
    "BottomUpOptimizer": "repro.volcano.bottomup",
    "OptimizationResult": "repro.volcano.search",
    "SearchOptions": "repro.volcano.search",
    "VolcanoOptimizer": "repro.volcano.search",
    "VolcanoRuleSet": "repro.volcano.model",
    "explain": "repro.volcano.explain",
    "normalize_query": "repro.volcano.normalize",
    "TreeBuilder": "repro.workloads.trees",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS, "__version__"]

"""Iterator execution engine for access plans.

The paper stops at optimization; this package makes the optimizer's
output *runnable*, in the style the Volcano system itself pioneered:
every algorithm is an iterator with ``open`` / ``next`` / ``close``
(here, Python's iterator protocol over row dictionaries).

Components:

* :mod:`repro.engine.iterators` — one iterator class per algorithm of
  the two rule sets (File_scan, Index_scan, Filter, Projection,
  Nested_loops, Merge_join, Hash_join, Pointer_join, Mat_deref,
  Unnest_scan, Merge_sort).
* :mod:`repro.engine.executor` — maps an access plan (operator tree of
  algorithms) onto an iterator tree and runs it; also provides a naive
  reference evaluator for *logical* operator trees, which the test suite
  uses to assert the semantic invariant that every plan in a query's
  search space returns the same multiset of rows.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Database": "repro.engine.executor",
    "execute_plan": "repro.engine.executor",
    "naive_evaluate": "repro.engine.executor",
    "rows_multiset": "repro.engine.executor",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)

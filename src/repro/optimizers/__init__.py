"""Concrete optimizer rule sets.

Two optimizers, each in two provenances (the paper's methodology):

* **Centralized relational** (Table 1 of the paper; the optimizer of the
  paper's earlier workshop publication [5]):
  :mod:`repro.optimizers.relational` (Prairie) and
  :mod:`repro.optimizers.relational_volcano` (hand-coded Volcano).
* **Open-OODB-scale object algebra** (paper Section 4.1): SELECT,
  PROJECT, JOIN, RET, UNNEST, MAT (+ the SORT enforcer-operator);
  :mod:`repro.optimizers.oodb` (Prairie, 22 T-rules + 11 I-rules) and
  :mod:`repro.optimizers.oodb_volcano` (hand-coded Volcano, 17
  trans_rules + 9 impl_rules + 1 enforcer).

Shared pieces: :mod:`repro.optimizers.costmodel` (cost formulas),
:mod:`repro.optimizers.helpers` (the helper functions rule actions call),
:mod:`repro.optimizers.schema` (the descriptor schema of Table 2).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "make_schema": "repro.optimizers.schema",
    "leaf_descriptor": "repro.optimizers.schema",
    "build_relational_prairie": "repro.optimizers.relational",
    "build_relational_volcano": "repro.optimizers.relational_volcano",
    "build_relational_noncompact": "repro.optimizers.relational_noncompact",
    "build_oodb_prairie": "repro.optimizers.oodb",
    "build_oodb_volcano": "repro.optimizers.oodb_volcano",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)

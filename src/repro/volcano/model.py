"""The Volcano rule model: trans_rules, impl_rules, and enforcers.

This is the *target* representation of the P2V pre-processor (paper
Section 3) and simultaneously the representation a user writes when
hand-coding an optimizer "directly in Volcano" (the paper's baseline).

The Volcano model is deliberately lower-level than Prairie's:

* **trans_rules** transform logical expressions; their behaviour is two
  callables, ``cond_code`` (may the rule fire?) and ``appl_code``
  (complete the output descriptors).
* **impl_rules** implement an operator by an algorithm; besides
  ``cond_code``, each algorithm drags along the four helper functions the
  paper names in Table 4(b): ``do_any_good`` (build the algorithm
  argument and decide whether to pursue this alternative),
  ``get_input_pv`` (the physical properties each input must deliver),
  ``derive_phy_prop`` (the physical properties the algorithm delivers),
  and ``cost`` (the algorithm's cost once input costs are known).
* **enforcers** are algorithms that exist solely to establish physical
  properties (the paper's example: a sort enforcer).  In Prairie they are
  ordinary I-rules of an enforcer-operator; P2V generates these objects.

All callables receive an :class:`~repro.prairie.actions.ActionEnv` whose
descriptor bindings the engine prepares (see
:mod:`repro.volcano.search`); generated rules interpret their Prairie
action blocks against it, hand-coded rules manipulate it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.algebra.operations import Algorithm, Operator
from repro.algebra.patterns import (
    PatternNode,
    PatternVar,
    pattern_nodes,
    pattern_vars,
)
from repro.algebra.properties import DescriptorSchema
from repro.errors import RuleSetError
from repro.prairie.actions import ActionEnv
from repro.prairie.helpers import HelperRegistry
from repro.volcano.patterns import compile_trans_rule
from repro.volcano.properties import PropertyVector

CondCode = Callable[[ActionEnv], bool]
ApplCode = Callable[[ActionEnv], None]
DoAnyGood = Callable[[ActionEnv], bool]
GetInputPV = Callable[[ActionEnv, int], PropertyVector]
DerivePhyProp = Callable[[ActionEnv], PropertyVector]
CostFn = Callable[[ActionEnv], float]


def _side_descriptor_names(side: PatternNode) -> frozenset[str]:
    names = {side.descriptor}
    for var in pattern_vars(side):
        if var.descriptor:
            names.add(var.descriptor)
    return frozenset(names)


def _input_descriptor_names(side: PatternNode) -> "tuple[str | None, ...]":
    """Per-input descriptor names of a flat (impl/enforcer) pattern side.

    Resolved once at rule-construction time; the engine reads these on
    every rule application, so the per-call ``inputs[index]`` chasing is
    hoisted here.
    """
    for var in side.inputs:
        assert isinstance(var, PatternVar)
    return tuple(var.descriptor for var in side.inputs)


@dataclass
class TransRule:
    """A Volcano transformation rule over logical expressions.

    ``lhs``/``rhs`` are patterns; the engine binds the LHS against memo
    expressions, prepares fresh descriptors for the RHS names, and runs
    ``cond_code`` then (on success) ``appl_code``.  It does so through
    ``fire``, the function generated from the two patterns when a rule
    set holding the rule is first validated; the patterns are therefore
    fixed once the rule is in use.
    """

    name: str
    lhs: PatternNode
    rhs: PatternNode
    cond_code: CondCode
    appl_code: ApplCode
    doc: str = ""
    # Rule-provenance id carried on every trace event this rule fires
    # (``prairie:t_rule:<name>`` when P2V-generated; defaults to the
    # hand-coded marker).  See :func:`repro.prairie.compile.mint_provenance`.
    provenance_id: "str | None" = None

    def __post_init__(self) -> None:
        from repro.algebra.patterns import descriptor_names
        from repro.prairie.compile import mint_provenance

        if self.provenance_id is None:
            self.provenance_id = mint_provenance(
                "volcano", "trans_rule", self.name
            )

        # Cached: the engine consults these on every rule application.
        self._lhs_desc_names = frozenset(descriptor_names(self.lhs))
        self._rhs_desc_names = frozenset(descriptor_names(self.rhs))
        # Ordered variant for the engine's fresh-descriptor loop: resolved
        # here once instead of per application, and deterministic.  Names
        # already bound by the LHS are excluded — they stay bound to the
        # matched descriptors (and are read-only for the rule's actions).
        self._fresh_rhs_names = tuple(
            name
            for name in descriptor_names(self.rhs)
            if name not in self._lhs_desc_names
        )
        # The generated firing function (repro.volcano.patterns), built
        # once by VolcanoRuleSet.validate() and kept for the rule's life.
        self.fire = None

    def __getstate__(self) -> dict:
        """Rules pickle without their generated function, which is not
        importable; the next ``validate()`` generates it again."""
        state = self.__dict__.copy()
        state["fire"] = None
        return state

    @property
    def lhs_descriptor_names(self) -> frozenset[str]:
        return self._lhs_desc_names

    @property
    def rhs_descriptor_names(self) -> frozenset[str]:
        return self._rhs_desc_names

    @property
    def fresh_rhs_names(self) -> "tuple[str, ...]":
        """RHS descriptor names in pattern order (engine fast path)."""
        return self._fresh_rhs_names

    def __str__(self) -> str:
        return f"trans_rule {self.name}: {self.lhs} -> {self.rhs}"


@dataclass
class ImplRule:
    """A Volcano implementation rule: operator → algorithm.

    The LHS is a single operator application over variables; the RHS the
    corresponding algorithm application.  RHS variables may carry fresh
    descriptor names whose physical properties (filled by
    ``do_any_good``) define the input property vectors.
    """

    name: str
    operator: str
    algorithm: Algorithm
    lhs: PatternNode
    rhs: PatternNode
    cond_code: CondCode
    do_any_good: DoAnyGood
    get_input_pv: GetInputPV
    derive_phy_prop: DerivePhyProp
    cost: CostFn
    doc: str = ""
    provenance_id: "str | None" = None

    def __post_init__(self) -> None:
        if self.provenance_id is None:
            from repro.prairie.compile import mint_provenance

            self.provenance_id = mint_provenance(
                "volcano", "impl_rule", self.name
            )
        if self.lhs.op_name != self.operator:
            raise RuleSetError(
                f"impl_rule {self.name!r}: lhs operator {self.lhs.op_name!r} "
                f"!= declared operator {self.operator!r}"
            )
        if self.rhs.op_name != self.algorithm.name:
            raise RuleSetError(
                f"impl_rule {self.name!r}: rhs algorithm {self.rhs.op_name!r} "
                f"!= declared algorithm {self.algorithm.name!r}"
            )
        self._lhs_desc_names = _side_descriptor_names(self.lhs)
        self._rhs_desc_names = _side_descriptor_names(self.rhs)
        self._lhs_input_descs = _input_descriptor_names(self.lhs)
        self._rhs_input_descs = _input_descriptor_names(self.rhs)

    # -- binding metadata the engine needs ---------------------------------

    @property
    def arity(self) -> int:
        return len(self.lhs.inputs)

    @property
    def op_desc_name(self) -> str:
        return self.lhs.descriptor

    @property
    def alg_desc_name(self) -> str:
        return self.rhs.descriptor

    def lhs_input_desc(self, index: int) -> "str | None":
        return self._lhs_input_descs[index]

    def rhs_input_desc(self, index: int) -> "str | None":
        return self._rhs_input_descs[index]

    @property
    def lhs_descriptor_names(self) -> frozenset[str]:
        return self._lhs_desc_names

    @property
    def rhs_descriptor_names(self) -> frozenset[str]:
        return self._rhs_desc_names

    def __str__(self) -> str:
        return f"impl_rule {self.name}: {self.operator} -> {self.algorithm.name}"


@dataclass
class Enforcer:
    """A Volcano enforcer: an algorithm establishing physical properties.

    Structurally a single-input impl_rule; ``operator`` records the
    Prairie enforcer-operator it came from (or a synthetic name when
    hand-coded).  The engine applies enforcers at *group* level whenever
    a non-trivial property vector is requested: the enforcer's plan is
    ``algorithm(plan for the same group under a relaxed vector)``.
    """

    name: str
    operator: str
    algorithm: Algorithm
    lhs: PatternNode
    rhs: PatternNode
    cond_code: CondCode
    do_any_good: DoAnyGood
    get_input_pv: GetInputPV
    derive_phy_prop: DerivePhyProp
    cost: CostFn
    doc: str = ""
    provenance_id: "str | None" = None

    @property
    def op_desc_name(self) -> str:
        return self.lhs.descriptor

    @property
    def alg_desc_name(self) -> str:
        return self.rhs.descriptor

    def lhs_input_desc(self, index: int) -> "str | None":
        return self._lhs_input_descs[index]

    def rhs_input_desc(self, index: int) -> "str | None":
        return self._rhs_input_descs[index]

    def __post_init__(self) -> None:
        if self.provenance_id is None:
            from repro.prairie.compile import mint_provenance

            self.provenance_id = mint_provenance(
                "volcano", "enforcer", self.name
            )
        self._lhs_desc_names = _side_descriptor_names(self.lhs)
        self._rhs_desc_names = _side_descriptor_names(self.rhs)
        self._lhs_input_descs = _input_descriptor_names(self.lhs)
        self._rhs_input_descs = _input_descriptor_names(self.rhs)

    @property
    def lhs_descriptor_names(self) -> frozenset[str]:
        return self._lhs_desc_names

    @property
    def rhs_descriptor_names(self) -> frozenset[str]:
        return self._rhs_desc_names

    def __str__(self) -> str:
        return f"enforcer {self.name}: {self.algorithm.name}"


class VolcanoRuleSet:
    """A complete Volcano optimizer specification.

    Produced either by hand (the paper's baseline approach) or by the P2V
    pre-processor from a Prairie rule set.  ``provenance`` records which,
    for the comparison benchmarks.  Every schema property belongs to one
    of four classes: the cost property, ``physical_properties``,
    ``derived_properties`` or ``argument_properties`` (see
    :mod:`repro.prairie.analysis`).
    """

    def __init__(
        self,
        name: str,
        schema: DescriptorSchema,
        helpers: HelperRegistry,
        physical_properties: tuple[str, ...],
        argument_properties: tuple[str, ...],
        cost_property: str,
        provenance: str = "hand-coded",
        derived_properties: tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.schema = schema
        self.helpers = helpers
        self.physical_properties = physical_properties
        # The m-expr identity: the memo key and the plan-cache fingerprint
        # project descriptors onto these.
        self.argument_properties = argument_properties
        # Stream properties derived from the inputs (attributes, tuple
        # size): carried on descriptors, left out of the identity.
        self.derived_properties = derived_properties
        self.cost_property = cost_property
        self.provenance = provenance
        self.operators: dict[str, Operator] = {}
        self.algorithms: dict[str, Algorithm] = {}
        self.trans_rules: list[TransRule] = []
        self.impl_rules: list[ImplRule] = []
        self.enforcers: list[Enforcer] = []
        self._impl_by_operator: dict[str, list[ImplRule]] = {}
        # trans_rules indexed by LHS root operator, as (dense id, rule)
        # pairs.  The dense id is the rule's position in ``trans_rules``;
        # the search engine uses it as a bit position in per-m-expr fired
        # masks.  Mirrors ``_impl_by_operator``.
        self._trans_by_root: dict[str, list[tuple[int, TransRule]]] = {}
        self._no_trans_entries: list[tuple[int, TransRule]] = []
        # Set by a successful validate(); every declare_*/add_* clears it.
        # Engines validate on construction, and a service builds one
        # engine per request.
        self._validated = False

    # -- construction ---------------------------------------------------------

    def declare_operator(self, op: Operator) -> Operator:
        self._validated = False
        if op.name in self.operators:
            raise RuleSetError(f"duplicate operator {op.name!r}")
        self.operators[op.name] = op
        return op

    def declare_algorithm(self, alg: Algorithm) -> Algorithm:
        self._validated = False
        if alg.name in self.algorithms:
            raise RuleSetError(f"duplicate algorithm {alg.name!r}")
        self.algorithms[alg.name] = alg
        return alg

    def add_trans_rule(self, rule: TransRule) -> TransRule:
        self._validated = False
        dense_id = len(self.trans_rules)
        self.trans_rules.append(rule)
        self._trans_by_root.setdefault(rule.lhs.op_name, []).append(
            (dense_id, rule)
        )
        return rule

    def add_impl_rule(self, rule: ImplRule) -> ImplRule:
        self._validated = False
        self.impl_rules.append(rule)
        self._impl_by_operator.setdefault(rule.operator, []).append(rule)
        return rule

    def add_enforcer(self, enforcer: Enforcer) -> Enforcer:
        self._validated = False
        self.enforcers.append(enforcer)
        return enforcer

    # -- queries ----------------------------------------------------------------

    def impl_rules_for(self, operator_name: str) -> list[ImplRule]:
        return self._impl_by_operator.get(operator_name, [])

    def trans_entries_for(
        self, operator_name: str
    ) -> "list[tuple[int, TransRule]]":
        """``(dense id, rule)`` pairs whose LHS root is ``operator_name``.

        Only rules whose pattern root matches an m-expr's operator can
        possibly bind, so the engine's exploration loop iterates this
        instead of every trans_rule.  The dense id doubles as the bit
        position in per-m-expr fired masks.
        """
        return self._trans_by_root.get(operator_name, self._no_trans_entries)

    def counts(self) -> dict[str, int]:
        """Size summary used by the Section 4.2 productivity comparison."""
        return {
            "operators": len(self.operators),
            "algorithms": len(self.algorithms),
            "trans_rules": len(self.trans_rules),
            "impl_rules": len(self.impl_rules),
            "enforcers": len(self.enforcers),
        }

    def validate(self) -> None:
        """Whole-rule-set sanity checks (raises :class:`RuleSetError`).

        A valid rule set also gets each trans_rule's firing function
        generated (once per rule).  Success is remembered until the rule
        set next changes, so validating an unchanged set is free.
        """
        if self._validated:
            return
        issues: list[str] = []
        for rule in self.impl_rules:
            if rule.operator not in self.operators:
                issues.append(
                    f"impl_rule {rule.name!r}: unknown operator {rule.operator!r}"
                )
            if rule.algorithm.name not in self.algorithms:
                issues.append(
                    f"impl_rule {rule.name!r}: unknown algorithm "
                    f"{rule.algorithm.name!r}"
                )
        for rule in self.trans_rules:
            for side in (rule.lhs, rule.rhs):
                for node in pattern_nodes(side):
                    if node.op_name not in self.operators:
                        issues.append(
                            f"trans_rule {rule.name!r}: unknown operator "
                            f"{node.op_name!r}"
                        )
            bound = {var.var for var in pattern_vars(rule.lhs)}
            for var in pattern_vars(rule.rhs):
                if var.var not in bound:
                    issues.append(
                        f"trans_rule {rule.name!r}: right-side variable "
                        f"?{var.var} is not bound by the left side"
                    )
        for op_name in self.operators:
            if not self.impl_rules_for(op_name):
                issues.append(
                    f"operator {op_name!r} has no impl_rule: queries using "
                    f"it can never be implemented"
                )
        seen: set[str] = set()
        for rule in (*self.trans_rules, *self.impl_rules, *self.enforcers):
            if rule.name in seen:
                issues.append(f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)
        if issues:
            raise RuleSetError(
                f"Volcano rule set {self.name!r} is invalid:\n  "
                + "\n  ".join(issues)
            )
        for rule in self.trans_rules:
            if rule.fire is None:
                rule.fire = compile_trans_rule(rule)
        self._validated = True

    def __repr__(self) -> str:
        c = self.counts()
        return (
            f"VolcanoRuleSet({self.name!r}, {self.provenance}, "
            f"{c['trans_rules']} trans_rules, {c['impl_rules']} impl_rules, "
            f"{c['enforcers']} enforcers)"
        )

"""P2V's automatic classification pass (paper Section 3.1).

Volcano forces users to classify every property as *logical*, *physical*,
or an *operator/algorithm argument*, and to declare enforcers explicitly.
The paper observes that this classification is rule-dependent and brittle;
Prairie instead derives it mechanically from the rule set:

* a property declared with type ``COST`` is a **cost** property;
* a property assigned *at property granularity* in the pre-opt section of
  any I-rule is a **physical property** (the paper's example: I-rule (5)
  assigns ``D4.tuple_order`` in its pre-opt section, so ``tuple_order`` is
  physical);
* a property is a **derived stream property** when T-rules compute it
  only from the same property of the written node's own input streams
  (``D3.attributes = union(DB.attributes, DC.attributes)``) and no cost
  section (I-rule or enforcer post-opt) reads it: it describes the
  stream an expression produces, so two derivations of one expression
  may compute it differently without being different expressions;
* every remaining property is an **operator/algorithm argument**.

The argument properties are the search engine's m-expr identity: the
memo key and the plan-cache fingerprint project descriptors onto them.
Derived properties stay on the descriptors (the group's logical
descriptor supplies them to rules) but not in that key.  A property a
cost section reads stays an argument even when it is derived from the
inputs: ``num_records`` estimates are rounded step by step, so two
derivation paths can estimate one expression differently, and merging
them would change the cost of the plans built on it.

Enforcer detection (Sections 2.5, 3.1): an operator with a Null I-rule is
an **enforcer-operator**; the non-Null algorithms implementing it are
**enforcer-algorithms** (they become Volcano enforcers, and the operator
itself disappears during rule merging).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.patterns import PatternNode, pattern_nodes, pattern_vars
from repro.errors import TranslationError
from repro.prairie.actions import (
    ActionBlock,
    AssignProp,
    DescRef,
    Expr,
    PropRef,
    PyAction,
    walk_expr,
)
from repro.prairie.rules import TRule
from repro.prairie.ruleset import PrairieRuleSet


@dataclass(frozen=True)
class RuleSetAnalysis:
    """The classification P2V derives from a Prairie rule set.

    All tuples preserve descriptor-schema / declaration order so that
    generated property vectors are stable across runs.
    """

    cost_properties: tuple[str, ...]
    physical_properties: tuple[str, ...]
    argument_properties: tuple[str, ...]
    derived_properties: tuple[str, ...]
    enforcer_operators: tuple[str, ...]
    enforcer_algorithms: tuple[str, ...]

    @property
    def cost_property(self) -> str:
        """The single cost property (Volcano models one scalar cost)."""
        return self.cost_properties[0]

    def classify(self, prop: str) -> str:
        """One of ``"cost"``, ``"physical"``, ``"derived"``, ``"argument"``."""
        if prop in self.cost_properties:
            return "cost"
        if prop in self.physical_properties:
            return "physical"
        if prop in self.derived_properties:
            return "derived"
        return "argument"

    def summary(self) -> dict[str, tuple[str, ...]]:
        """A report-friendly mapping of the full classification."""
        return {
            "cost": self.cost_properties,
            "physical": self.physical_properties,
            "argument": self.argument_properties,
            "derived": self.derived_properties,
            "enforcer_operators": self.enforcer_operators,
            "enforcer_algorithms": self.enforcer_algorithms,
        }


def analyse(
    ruleset: PrairieRuleSet, i_rules=None, t_rules=None
) -> RuleSetAnalysis:
    """Run the classification pass over a validated rule set.

    ``i_rules`` and ``t_rules`` optionally override the rules the pass
    reads.  The P2V translator passes the *post-merge* rules here: a rule
    set written in the non-compact style (paper Section 3.3's JOPR
    example) only exhibits its physical-property assignments after
    requirement folding, exactly as the paper's compact I-rule (5) does.
    """
    if i_rules is None:
        i_rules = ruleset.i_rules
    if t_rules is None:
        t_rules = ruleset.t_rules
    schema_order = ruleset.schema.names

    cost_props = ruleset.schema.cost_properties()
    if not cost_props:
        raise TranslationError(
            f"rule set {ruleset.name!r} declares no COST-typed property; "
            f"Volcano needs one for branch-and-bound"
        )
    if len(cost_props) > 1:
        raise TranslationError(
            f"rule set {ruleset.name!r} declares multiple COST properties "
            f"{cost_props}; the Volcano model carries exactly one cost"
        )

    # Physical: property-granular writes in I-rule pre-opt sections.
    physical: set[str] = set()
    for rule in i_rules:
        for _desc, prop in rule.pre_opt.property_writes():
            physical.add(prop)
    physical -= set(cost_props)

    derived = _derived_properties(t_rules, i_rules)
    derived -= physical | set(cost_props)

    argument = tuple(
        p
        for p in schema_order
        if p not in physical and p not in cost_props and p not in derived
    )
    physical_ordered = tuple(p for p in schema_order if p in physical)

    enforcer_ops = ruleset.null_ruled_operators()
    enforcer_algs: list[str] = []
    for op_name in enforcer_ops:
        for rule in ruleset.i_rules_for(op_name):
            if not rule.is_null_rule and rule.algorithm_name not in enforcer_algs:
                enforcer_algs.append(rule.algorithm_name)

    return RuleSetAnalysis(
        cost_properties=cost_props,
        physical_properties=physical_ordered,
        argument_properties=argument,
        derived_properties=tuple(p for p in schema_order if p in derived),
        enforcer_operators=enforcer_ops,
        enforcer_algorithms=tuple(enforcer_algs),
    )


def _stream_inputs(rule: TRule) -> "dict[str, frozenset[str]]":
    """Each right-side node's descriptor → its input streams' descriptors.

    A variable input contributes the descriptor its left-side binding
    names (``?S1:DA`` → ``DA``); a nested node contributes its own.
    """
    var_desc = {var.var: var.descriptor for var in pattern_vars(rule.lhs)}
    inputs: "dict[str, frozenset[str]]" = {}
    for node in pattern_nodes(rule.rhs):
        names = (
            child.descriptor
            if isinstance(child, PatternNode)
            else var_desc.get(child.var)
            for child in node.inputs
        )
        inputs[node.descriptor] = frozenset(n for n in names if n is not None)
    return inputs


def _reads_input_values(expr: Expr, prop: str, inputs: frozenset) -> bool:
    """Does ``expr`` read ``prop`` only from ``inputs``, at least once?

    A whole-descriptor reference may hand any property to a helper, so
    it disqualifies the write.
    """
    reads = []
    for node in walk_expr(expr):
        if isinstance(node, DescRef):
            return False
        if isinstance(node, PropRef) and node.prop == prop:
            reads.append(node.desc)
    return bool(reads) and all(desc in inputs for desc in reads)


def _cost_reads(block: ActionBlock) -> "set[str] | None":
    """Properties a cost section reads; ``None`` when it may read any."""
    reads: set[str] = set()
    for stmt in block:
        if isinstance(stmt, PyAction):
            return None
        for node in walk_expr(stmt.expr):
            if isinstance(node, DescRef):
                return None
            if isinstance(node, PropRef):
                reads.add(node.prop)
    return reads


def _derived_properties(t_rules, i_rules) -> "set[str]":
    """Properties every T-rule write derives from the written node's own
    input streams and no cost section reads (see the module docstring).

    An opaque :class:`PyAction` in a T-rule or a cost section may read
    and write anything, so it leaves no property derived.
    """
    written: set[str] = set()
    rejected: set[str] = set()
    for rule in t_rules:
        inputs = _stream_inputs(rule)
        for block in (rule.pre_test, rule.post_test):
            for stmt in block:
                if isinstance(stmt, PyAction):
                    return set()
                if not isinstance(stmt, AssignProp):
                    continue
                written.add(stmt.prop)
                own = inputs.get(stmt.desc, frozenset())
                if not _reads_input_values(stmt.expr, stmt.prop, own):
                    rejected.add(stmt.prop)
    for rule in i_rules:
        reads = _cost_reads(rule.post_opt)
        if reads is None:
            return set()
        rejected |= reads
    return written - rejected

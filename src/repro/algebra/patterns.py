"""Rule patterns: the tree shapes on either side of a rule.

A rule's left- and right-hand sides are *pattern expressions*: operator
(or algorithm) applications over *pattern variables*.  In the paper's
notation::

    JOIN(JOIN(S1, S2):D1, S3):D2  ⇒  JOIN(S1, JOIN(S2, S3):D3):D4

``S1..S3`` are variables standing for arbitrary input expressions, and
``D1..D4`` name the descriptors of the pattern nodes.  Variables on a
left-hand side implicitly carry descriptors too (``S1``'s descriptor is
conventionally ``D1`` etc. in the paper; here every variable and node
names its descriptor explicitly, and the convention is applied by the
DSL parser).

Patterns are shared by the Prairie rule model and the Volcano engine:
Prairie rules are written with them, and :mod:`repro.volcano.patterns`
compiles each trans_rule's pair of them into the function that binds
the left side against memo expressions and builds the right side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from repro.errors import RuleError


@dataclass(frozen=True)
class PatternVar:
    """A leaf variable of a pattern (``S1``, ``F`` …).

    ``descriptor`` optionally names the descriptor associated with the
    subexpression the variable matches.  On a rule's LHS this binds the
    matched input's descriptor read-only; on the RHS a *different*
    descriptor name introduces a fresh descriptor carrying requirements
    for that input (the ``S1 : D4`` of I-rule (5) in the paper).
    """

    var: str
    descriptor: "str | None" = None

    def __str__(self) -> str:
        if self.descriptor:
            return f"?{self.var}:{self.descriptor}"
        return f"?{self.var}"


@dataclass(frozen=True)
class PatternNode:
    """An operation application in a pattern: ``OP(child, …) : D``."""

    op_name: str
    inputs: "tuple[PatternElem, ...]"
    descriptor: str

    def __str__(self) -> str:
        args = ", ".join(str(c) for c in self.inputs)
        return f"{self.op_name}({args}):{self.descriptor}"


PatternElem = Union[PatternVar, PatternNode]


def walk_pattern(elem: PatternElem) -> Iterator[PatternElem]:
    """Pre-order traversal over all pattern elements."""
    yield elem
    if isinstance(elem, PatternNode):
        for child in elem.inputs:
            yield from walk_pattern(child)


def pattern_vars(elem: PatternElem) -> tuple[PatternVar, ...]:
    """All variables of the pattern, left to right."""
    return tuple(e for e in walk_pattern(elem) if isinstance(e, PatternVar))


def pattern_nodes(elem: PatternElem) -> tuple[PatternNode, ...]:
    """All operation nodes of the pattern, pre-order."""
    return tuple(e for e in walk_pattern(elem) if isinstance(e, PatternNode))


def pattern_operations(elem: PatternElem) -> tuple[str, ...]:
    """Names of all operations appearing in the pattern, pre-order."""
    return tuple(node.op_name for node in pattern_nodes(elem))


def descriptor_names(elem: PatternElem) -> tuple[str, ...]:
    """All descriptor names introduced by the pattern, pre-order.

    Includes descriptors on variables (``S1:D4``) and on nodes.
    """
    names: list[str] = []
    for e in walk_pattern(elem):
        if isinstance(e, PatternNode):
            names.append(e.descriptor)
        elif e.descriptor is not None:
            names.append(e.descriptor)
    return tuple(names)


def pattern_depth(elem: PatternElem) -> int:
    """Nesting depth: a bare variable is 0, a node is 1 + max child depth."""
    if isinstance(elem, PatternVar):
        return 0
    if not elem.inputs:
        return 1
    return 1 + max(pattern_depth(c) for c in elem.inputs)


def validate_pattern(elem: PatternElem, where: str = "pattern") -> None:
    """Structural sanity checks shared by every rule kind.

    * variable names must be unique within one side,
    * descriptor names must be unique within one side,
    * the root must be a node, not a bare variable.
    """
    if isinstance(elem, PatternVar):
        raise RuleError(f"{where}: root of a rule side must be an operation")
    seen_vars: set[str] = set()
    for var in pattern_vars(elem):
        if var.var in seen_vars:
            raise RuleError(f"{where}: duplicate variable {var.var!r}")
        seen_vars.add(var.var)
    seen_descs: set[str] = set()
    for name in descriptor_names(elem):
        if name in seen_descs:
            raise RuleError(f"{where}: duplicate descriptor name {name!r}")
        seen_descs.add(name)


def rename_operation(elem: PatternElem, old: str, new: str) -> PatternElem:
    """A copy of the pattern with every ``old`` operation renamed to ``new``.

    Used by the P2V rule-merging pass when an idempotent T-rule collapses
    (the JOPR→JOIN example of paper Section 3.3).
    """
    if isinstance(elem, PatternVar):
        return elem
    new_inputs = tuple(rename_operation(c, old, new) for c in elem.inputs)
    name = new if elem.op_name == old else elem.op_name
    return PatternNode(name, new_inputs, elem.descriptor)

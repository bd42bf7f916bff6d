"""Matching rule left-hand sides against memo expressions.

A trans_rule's LHS is a pattern tree (:mod:`repro.algebra.patterns`); it
may be nested (``JOIN(JOIN(?1,?2),?3)``), in which case matching an inner
pattern node requires enumerating the m-exprs of the corresponding input
*group*.  The matcher therefore takes an ``expand`` callback supplied by
the search engine: given a group id, return the m-exprs to consider
(after the engine has applied whatever exploration policy it wants).

A successful match yields a :class:`MatchBinding`:

* pattern variables → the group ids they matched, and
* LHS descriptor names → the live descriptors of the matched m-exprs /
  groups (read-only from the perspective of rule actions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.algebra.descriptors import Descriptor
from repro.algebra.patterns import PatternElem, PatternNode, PatternVar
from repro.volcano.memo import Memo, MExpr


@dataclass
class MatchBinding:
    """The result of matching a pattern against memo content."""

    groups: dict[str, int] = field(default_factory=dict)
    descriptors: dict[str, Descriptor] = field(default_factory=dict)

    def copy(self) -> "MatchBinding":
        clone = MatchBinding.__new__(MatchBinding)
        clone.groups = dict(self.groups)
        clone.descriptors = dict(self.descriptors)
        return clone


ExpandFn = Callable[[int], "list[MExpr]"]

# Optional operator-filtered expansion: (group id, operator name) → the
# group's members with that root operator, in insertion order.  The search
# engine always supplies it, so nested matching skips the scan over
# members whose root cannot match; the plain ``expand`` callback remains
# the semantic contract (and the only one tests must provide).
ExpandOpFn = Callable[[int, str], "list[MExpr]"]


def match_mexpr(
    pattern: PatternNode,
    mexpr: MExpr,
    memo: Memo,
    expand: ExpandFn,
    expand_op: "ExpandOpFn | None" = None,
) -> Iterator[MatchBinding]:
    """All bindings of ``pattern`` against ``mexpr`` (possibly several).

    Multiple bindings arise from nested pattern nodes: each combination
    of matching child m-exprs yields one binding.
    """
    if mexpr.is_file or mexpr.op_name != pattern.op_name:
        return
    if len(pattern.inputs) != len(mexpr.inputs):
        return

    root = MatchBinding.__new__(MatchBinding)
    root.groups = {}
    root.descriptors = {pattern.descriptor: mexpr.descriptor}
    yield from _match_children(
        pattern.inputs, mexpr.inputs, 0, root, memo, expand, expand_op
    )


def _match_children(
    patterns: tuple[PatternElem, ...],
    group_ids: tuple[int, ...],
    index: int,
    binding: MatchBinding,
    memo: Memo,
    expand: ExpandFn,
    expand_op: "ExpandOpFn | None",
) -> Iterator[MatchBinding]:
    if index == len(patterns):
        yield binding
        return
    pattern = patterns[index]
    gid = group_ids[index]
    if isinstance(pattern, PatternVar):
        # Bindings extend one dict at a time; the untouched dict is
        # shared with the parent (bindings are read-only to consumers,
        # so structural sharing is safe and saves a copy per extension).
        extended = MatchBinding.__new__(MatchBinding)
        groups = dict(binding.groups)
        groups[pattern.var] = gid
        extended.groups = groups
        if pattern.descriptor is not None:
            descriptors = dict(binding.descriptors)
            descriptors[pattern.descriptor] = memo.group(
                gid
            ).logical_descriptor
            extended.descriptors = descriptors
        else:
            extended.descriptors = binding.descriptors
        yield from _match_children(
            patterns, group_ids, index + 1, extended, memo, expand, expand_op
        )
        return
    # Nested pattern node: try every m-expr of the input group (only the
    # plausibly matching ones when the engine indexes members by root).
    if expand_op is not None:
        candidates = expand_op(gid, pattern.op_name)
    else:
        candidates = expand(gid)
    for child in candidates:
        for child_binding in _nested_match(
            pattern, child, binding, memo, expand, expand_op
        ):
            yield from _match_children(
                patterns, group_ids, index + 1, child_binding, memo, expand,
                expand_op,
            )


def _nested_match(
    pattern: PatternNode,
    mexpr: MExpr,
    binding: MatchBinding,
    memo: Memo,
    expand: ExpandFn,
    expand_op: "ExpandOpFn | None",
) -> Iterator[MatchBinding]:
    if mexpr.is_file or mexpr.op_name != pattern.op_name:
        return
    if len(pattern.inputs) != len(mexpr.inputs):
        return
    extended = MatchBinding.__new__(MatchBinding)
    extended.groups = binding.groups  # shared: unchanged at this node
    descriptors = dict(binding.descriptors)
    descriptors[pattern.descriptor] = mexpr.descriptor
    extended.descriptors = descriptors
    yield from _match_children(
        pattern.inputs, mexpr.inputs, 0, extended, memo, expand, expand_op
    )


def pattern_could_match(pattern: PatternNode, mexpr: MExpr) -> bool:
    """Cheap top-level test: does the root operator fit?

    Used for the Table 5 "rules matched" statistic before full matching.
    """
    return (
        not mexpr.is_file
        and mexpr.op_name == pattern.op_name
        and len(pattern.inputs) == len(mexpr.inputs)
    )

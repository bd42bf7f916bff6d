"""Compiled rule application: one generated Python function per trans_rule.

Volcano is an optimizer *generator*: rule specifications are compiled
together with the search engine instead of being interpreted (paper
Figure 8).  This module is that step for trans_rules.  For every rule it
emits Python source that

* matches the left-hand side with nested loops — one loop per nested
  pattern node, over the input group's live ``by_op`` bucket for the
  node's operator, after exploring that group (lazy exploration: a group
  is explored only when a pattern needs its members);
* binds matched groups and descriptors to locals and builds the rule's
  :class:`~repro.prairie.actions.ActionEnv` from them, so ``cond_code``
  and ``appl_code`` run under the environment contract every rule set
  is written against, hand-coded or generated by P2V;
* builds the right-hand side inline in post-order: each node's identity
  key (operator, input groups and argument-property projection, the
  :meth:`~repro.volcano.memo.MExpr.key` tuple) is probed in the memo's
  duplicate-elimination index before any descriptor is copied; a new
  node is inserted with
  ``allow_cross_group`` (the fired rule proves the two groups
  equivalent), and a brand-new group is explored at once, so every
  variant of an equivalence class lands in one group;
* emits the search's trace events (``trans_attempt``, ``trans_rejected``,
  ``trans_fired``) and updates its
  :class:`~repro.volcano.search.SearchStats` counters.

Iteration order, exploration calls and memo inserts are exactly those of
a recursive pattern walker, so the compiled search derives the same memo
and the same plans (``tests/test_search_golden.py``).  A bucket that
grows while it is being iterated — rule application inserts into the
groups it reads — is seen to its end, as a walker over the live list
would see it.

The function is generated once per rule object, by
:meth:`VolcanoRuleSet.validate` (``TransRule.fire``); engines only call
it.  Rules of one shape share a compiled code object, so a second rule
set over the same patterns compiles nothing.  :func:`compile_matcher`
emits the same loops with a ``yield`` in place of rule application, for
inspecting what a pattern binds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator

from repro.algebra.descriptors import Descriptor
from repro.algebra.patterns import PatternElem, PatternNode, PatternVar
from repro.prairie.actions import ActionEnv, LazyFreshDescriptors
from repro.volcano.memo import MExpr

#: ``fire(engine, state, mexpr, gid)``: apply one rule to one m-expr of
#: group ``gid``, for every binding of its left side.
FireFn = Callable[..., None]


class _Source:
    """Indented source lines under construction, plus their constants.

    Operator, descriptor and variable names enter the source as globals
    ``K0, K1, …`` numbered by occurrence, so rules of one shape (say
    ``MAT(JOIN(..))`` and ``SELECT(JOIN(..))`` pushes) generate the same
    text and share one compiled code object.
    """

    def __init__(self) -> None:
        self.lines: "list[str]" = []
        self.constants: "dict[str, object]" = {}

    def put(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def const(self, value: object) -> str:
        name = f"K{len(self.constants)}"
        self.constants[name] = value
        return name

    def mapping(self, pairs: "dict[str, str]") -> str:
        """Dict display source: constant keys, expression values."""
        items = ", ".join(f"{self.const(key)}: {value}" for key, value in pairs.items())
        return "{" + items + "}"

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _arity_miss(local: str, arity: int) -> str:
    # A file m-expr has no inputs, so for a node with inputs the arity
    # test also rejects file leaves.
    if arity == 0:
        return f"{local}.is_file"
    return f"len({local}.inputs) != {arity}"


def _tuple(items: "list[str]") -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _unpack(out: _Source, depth: int, node: int, local: str, arity: int) -> None:
    if arity:
        names = [f"g{node}_{i}" for i in range(arity)]
        out.put(depth, f"{_tuple(names)} = {local}.inputs")


def _emit_lhs(
    out: _Source,
    lhs: PatternNode,
    expand: Callable[[_Source, int, str, str], str],
) -> "tuple[int, dict[str, str], dict[str, str]]":
    """Emit the nested loops binding ``lhs`` against local ``mexpr``.

    ``expand(out, depth, group_local, op_name)`` emits whatever must run
    before a nested node's loop and returns the expression the loop
    iterates.  A root that does not match returns at once.  Returns the
    body's depth, the variable → group-local map and the descriptor
    name → expression map, both in pattern pre-order (the order a
    recursive walker binds them in).
    """
    arity = len(lhs.inputs)
    out.put(1, f"if mexpr.op_name != {out.const(lhs.op_name)} or {_arity_miss('mexpr', arity)}:")
    out.put(2, "return")
    groups: "dict[str, str]" = {}
    descriptors: "dict[str, str]" = {lhs.descriptor: "mexpr.descriptor"}
    _unpack(out, 1, 0, "mexpr", arity)
    depth = 1
    counter = 0

    def bind(node: PatternNode, node_id: int) -> None:
        nonlocal depth, counter
        for index, child in enumerate(node.inputs):
            group_local = f"g{node_id}_{index}"
            if isinstance(child, PatternVar):
                groups[child.var] = group_local
                if child.descriptor is not None:
                    descriptors[child.descriptor] = (
                        f"groups[{group_local}].logical_descriptor"
                    )
                continue
            counter += 1
            child_id = counter
            local = f"m{child_id}"
            bucket = expand(out, depth, group_local, child.op_name)
            out.put(depth, f"for {local} in {bucket}:")
            depth += 1
            child_arity = len(child.inputs)
            out.put(depth, f"if {_arity_miss(local, child_arity)}:")
            out.put(depth + 1, "continue")
            _unpack(out, depth, child_id, local, child_arity)
            descriptors[child.descriptor] = f"{local}.descriptor"
            bind(child, child_id)

    bind(lhs, 0)
    return depth, groups, descriptors


def _engine_expand(out: _Source, depth: int, group_local: str, op_name: str) -> str:
    # Inlined VolcanoOptimizer._explore fast path: an explored group
    # returns at once, so only unexplored groups pay for the call.
    out.put(depth, f"grp = groups[{group_local}]")
    out.put(depth, "if not grp.explored:")
    out.put(depth + 1, f"engine._explore(state, {group_local})")
    return f"grp.by_op.get({out.const(op_name)}, ())"


def _emit_rhs(
    out: _Source,
    depth: int,
    elem: PatternElem,
    groups: "dict[str, str]",
    fresh: "tuple[str, ...]",
    target: str,
    counter: "list[int]",
) -> str:
    """Emit the post-order build of ``elem``; returns its group-id local."""
    if isinstance(elem, PatternVar):
        return groups[elem.var]
    child_locals = [
        _emit_rhs(out, depth, child, groups, fresh, "None", counter)
        for child in elem.inputs
    ]
    name = out.const(elem.descriptor)
    op = out.const(elem.op_name)
    put = out.put
    put(depth, f"ins = {_tuple(child_locals)}")
    # An untouched fresh descriptor stays lazily absent (``dict.get``
    # skips ``__missing__``); its projection is the schema default.
    put(depth, f"d = ns.get({name})")
    put(depth, "if d is None:")
    if elem.descriptor not in fresh:
        put(depth + 1, f"env.descriptor({name})  # canonical ActionError")
    put(depth + 1, f"key = ({op}, ins, default_projection)")
    put(depth, "else:")
    put(depth + 1, f"key = ({op}, ins, d.project(argument_properties))")
    put(depth, "c = index.get(key)")
    if target != "None":
        # The root joins the matched group.
        put(depth, "if c is None:")
        put(depth + 1, f"insert_new(engine, state, {op}, ins, d, key, {target})")
        return ""
    counter[0] += 1
    result = f"r{counter[0]}"
    put(depth, "if c is None:")
    put(depth + 1, f"{result} = insert_new(engine, state, {op}, ins, d, key, None)")
    put(depth, "else:")
    put(depth + 1, f"{result} = c.group_id")
    return result


def _insert_new(engine, state, op_name, inputs, descriptor, key, target):
    """Insert a right-side node the memo does not hold; its group id.

    The slow path of the generated right-side build, out of line to keep
    the generated functions small: most right-side nodes re-derive a
    known m-expr and stop at the inline probe.  A default-valued fresh
    descriptor (``None``) is created here, a written one copied.  A
    brand-new group is closed under the trans_rules at once, so no other
    derivation can seed a second group for the same class.
    """
    if descriptor is None:
        descriptor = Descriptor(engine._fire_constants[2])
    else:
        descriptor = descriptor.copy()
    canonical, created = state.memo.insert(
        MExpr(op_name, inputs, descriptor),
        group_id=target,
        allow_cross_group=True,
        key=key,
    )
    if created and target is None:
        engine._explore(state, canonical.group_id)
    return canonical.group_id


def _trans_rule_code(rule) -> _Source:
    out = _Source()
    put = out.put
    put(0, "def fire(engine, state, mexpr, gid):")
    put(1, "emit = state.emit")
    put(1, "if emit is not None:")
    put(2, "emit('trans_attempt', rule=NAME, gid=gid)")
    put(1, "memo = state.memo")
    put(1, "groups = memo.groups")
    put(1, "considered = fired = 0")
    depth, groups, descriptors = _emit_lhs(out, rule.lhs, _engine_expand)
    put(depth, "considered += 1")
    put(depth, "helpers, context, schema, argument_properties, default_projection = (")
    put(depth + 1, "engine._fire_constants")
    put(depth, ")")
    put(depth, f"ns = LazyFreshDescriptors({out.mapping(descriptors)}, FRESH, schema)")
    put(depth, "env = ActionEnv(ns, helpers, context=context, readonly=LHS_NAMES)")
    put(depth, "if rule.cond_code(env):")
    body = depth + 1
    put(body, "state.stats.trans_applicable.add(NAME)")
    put(body, "rule.appl_code(env)")
    put(body, "fired += 1")
    put(body, "if emit is not None:")
    put(body + 1, "emit('trans_fired', rule=NAME, provenance=PROVENANCE, gid=gid)")
    put(body, "index = memo._index")
    _emit_rhs(out, body, rule.rhs, groups, rule.fresh_rhs_names, "gid", [0])
    put(depth, "elif emit is not None:")
    put(depth + 1, "emit('trans_rejected', rule=NAME, gid=gid)")
    put(1, "if considered:")
    put(2, "stats = state.stats")
    put(2, "stats.trans_considered += considered")
    put(2, "stats.trans_fired += fired")
    put(2, "stats.trans_matched.add(NAME)")
    return out


def trans_rule_source(rule) -> str:
    """The Python source of ``rule``'s firing function (``def fire``).

    Names in it are globals: ``K0, K1, …`` are the rule's operator,
    descriptor and variable names (``rule.fire.__globals__`` holds their
    values), ``NAME``/``PROVENANCE`` its name and provenance id.
    """
    return _trans_rule_code(rule).text()


@lru_cache(maxsize=256)
def _compiled(source: str):
    """One code object per distinct generated source text."""
    return compile(source, filename="<generated>", mode="exec")


def _exec(out: _Source, namespace: dict, name: str) -> Callable:
    namespace.update(out.constants)
    exec(_compiled(out.text()), namespace)  # noqa: S102 - generated from validated patterns
    return namespace[name]


def compile_trans_rule(rule) -> FireFn:
    """Generate ``rule``'s firing function.

    ``fire(engine, state, mexpr, gid)`` applies the rule to ``mexpr``
    (a member of group ``gid``): for each binding of the left side it
    builds the action environment, runs ``cond_code`` and, when the
    condition holds, ``appl_code`` and the right-side build.  ``engine``
    provides ``_explore(state, gid)`` and ``_fire_constants`` (helpers,
    context, schema, argument properties and the default argument
    projection); ``state`` provides ``memo``, ``stats`` and ``emit``.
    The rule's ``cond_code`` and ``appl_code`` are read at every call.
    """
    namespace = {
        "rule": rule,
        "NAME": rule.name,
        "PROVENANCE": rule.provenance_id,
        "FRESH": rule.fresh_rhs_names,
        "LHS_NAMES": rule.lhs_descriptor_names,
        "ActionEnv": ActionEnv,
        "LazyFreshDescriptors": LazyFreshDescriptors,
        "insert_new": _insert_new,
    }
    return _exec(_trans_rule_code(rule), namespace, "fire")


def _matcher_expand(out: _Source, depth: int, group_local: str, op_name: str) -> str:
    return f"expand_op({group_local}, {out.const(op_name)})"


def compile_matcher(
    lhs: PatternNode,
) -> "Callable[..., Iterator[tuple[dict[str, int], dict]]]":
    """The left-side loops of a generated rule, yielding each binding.

    ``match(mexpr, memo, expand_op)`` yields ``(groups, descriptors)``
    per binding: pattern variable → group id, and descriptor name → the
    matched m-expr's descriptor or the variable's group's logical
    descriptor, in pattern pre-order.  ``expand_op(gid, op_name)``
    returns the group's members with that root operator; bindings are
    produced lazily, so expansion happens only as far as iteration goes.
    """
    out = _Source()
    out.put(0, "def match(mexpr, memo, expand_op):")
    out.put(1, "groups = memo.groups")
    depth, groups, descriptors = _emit_lhs(out, lhs, _matcher_expand)
    out.put(depth, f"yield {out.mapping(groups)}, {out.mapping(descriptors)}")
    return _exec(out, {}, "match")

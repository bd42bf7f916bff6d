"""Compiling rule actions to Python functions (the generator stage).

The Volcano optimizer *generator* compiles rule specifications together
with the search engine to obtain an efficient optimizer (paper
Figure 8); likewise, P2V's output must be executable without paying
per-statement interpretation overhead at optimization time.  This module
translates action ASTs into Python source and ``exec``-compiles them
once, at translation time:

* a :class:`~repro.prairie.actions.TestExpr` becomes a function
  returning ``bool(<expression>)``;
* an :class:`~repro.prairie.actions.ActionBlock` becomes a function
  executing its assignments against the environment's descriptor values
  directly.

Both have one code shape: each descriptor's ``_values`` dict is hoisted
into a local at its first use, property reads and writes go through
that local, and a whole-descriptor assignment binds a ``copy()`` of the
source.

The compiled code assumes what rule validation already guarantees
statically — no assignments to left-hand-side descriptors, only
schema-declared properties — so the runtime checks the tree-walking
interpreter performs are safely elided.  Blocks containing opaque
:class:`~repro.prairie.actions.PyAction` statements (or ``PyTest``
tests) fall back to the interpreter, exactly like the paper's escape
hatch for non-assignment actions (footnote 3).

Helper calls bind directly to the registered callables; contextual
helpers receive ``env.context`` as their first argument.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.algebra.descriptors import Descriptor
from repro.algebra.properties import DONT_CARE
from repro.errors import TranslationError
from repro.obs.tracer import span
from repro.prairie.actions import (
    ActionBlock,
    ActionEnv,
    AssignDesc,
    AssignProp,
    BinOp,
    Call,
    DescRef,
    Expr,
    Lit,
    PropRef,
    PyAction,
    PyTest,
    Test,
    TestExpr,
    UnaryOp,
)
from repro.prairie.helpers import HelperRegistry

def mint_provenance(source: str, kind: str, name: str) -> str:
    """Mint a rule-provenance id: ``<source>:<kind>:<name>``.

    Minted once per rule at generation time — here for compiled Prairie
    rules (``prairie:t_rule:join-commute``), and by
    :class:`~repro.volcano.model.TransRule` and friends as the
    ``volcano:`` default for hand-coded rules.  Trace events carry the
    id so every Volcano firing maps back to the rule specification it
    came from; :func:`split_provenance` inverts it.
    """
    for part, label in ((source, "source"), (kind, "kind")):
        if not part or ":" in part:
            raise TranslationError(
                f"provenance {label} {part!r} must be a non-empty string "
                f"without ':'"
            )
    if not name:
        raise TranslationError("provenance rule name must be non-empty")
    return f"{source}:{kind}:{name}"


def split_provenance(provenance_id: str) -> "tuple[str, str, str]":
    """Split a provenance id back into ``(source, kind, rule name)``."""
    source, kind, name = provenance_id.split(":", 2)
    return source, kind, name


_BINOP_SOURCE = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "%": "%",
    "==": "==",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "&&": "and",
    "||": "or",
}


class _Emitter:
    """Collects generated source plus the globals it references.

    The emitter hoists each descriptor's ``_values`` dict into a
    function-local variable at first use (rule actions touch the same
    few descriptors many times): the hoisting lines an expression or
    statement needs collect in ``_pending``, to be emitted before it.
    Whole-descriptor assignment binds a copy of the source instead of
    default-constructing the target and overwriting every value.
    """

    def __init__(self, helpers: HelperRegistry) -> None:
        self.helpers = helpers
        self.globals: dict[str, Any] = {
            "DONT_CARE": DONT_CARE,
            "_copy": Descriptor.copy,
        }
        self._locals: dict[str, str] = {}
        self._pending: "list[str]" = []

    def _values_local(self, desc: str) -> str:
        """The local variable holding ``_d[desc]._values`` (hoisted)."""
        var = self._locals.get(desc)
        if var is None:
            var = f"_v_{desc}"
            self._locals[desc] = var
            self._pending.append(f"{var} = _d[{desc!r}]._values")
        return var

    def expr(self, node: Expr) -> str:
        if isinstance(node, Lit):
            if node.value is DONT_CARE:
                return "DONT_CARE"
            if isinstance(node.value, (bool, int, float, str)) or node.value is None:
                return repr(node.value)
            # Arbitrary literal objects (e.g. predicate values) are bound
            # as globals rather than repr-ed.
            name = f"_lit{len(self.globals)}"
            self.globals[name] = node.value
            return name
        if isinstance(node, DescRef):
            return f"_d[{node.desc!r}]"
        if isinstance(node, PropRef):
            return f"{self._values_local(node.desc)}[{node.prop!r}]"
        if isinstance(node, Call):
            fn_name = f"_h_{node.func}"
            if fn_name not in self.globals:
                self.globals[fn_name] = self.helpers.get_function(node.func)
            args = [self.expr(a) for a in node.args]
            if not self.helpers.is_pure(node.func):
                args.insert(0, "_ctx")
            return f"{fn_name}({', '.join(args)})"
        if isinstance(node, UnaryOp):
            op = "not " if node.op == "!" else node.op
            return f"({op}{self.expr(node.operand)})"
        if isinstance(node, BinOp):
            try:
                op = _BINOP_SOURCE[node.op]
            except KeyError:
                raise TranslationError(
                    f"cannot compile operator {node.op!r}"
                ) from None
            return f"({self.expr(node.left)} {op} {self.expr(node.right)})"
        raise TranslationError(f"cannot compile expression {node!r}")

    def statement(self, stmt: "AssignProp | AssignDesc") -> "list[str]":
        self._pending = []
        if isinstance(stmt, AssignProp):
            expr_src = self.expr(stmt.expr)
            target = self._values_local(stmt.desc)
            return [*self._pending, f"{target}[{stmt.prop!r}] = {expr_src}"]
        if isinstance(stmt, AssignDesc):
            # Bind a copy of the source, and repoint the hoisted local at
            # the new dict.
            expr_src = self.expr(stmt.expr)
            var = self._locals.setdefault(stmt.desc, f"_v_{stmt.desc}")
            return [
                *self._pending,
                f"_d[{stmt.desc!r}] = _new = _copy({expr_src})",
                f"{var} = _new._values",
            ]
        raise TranslationError(f"cannot compile statement {stmt!r}")


def _compile(body: "list[str]", emitter: _Emitter, name: str) -> Callable:
    """Compile ``def name(env)`` with ``body`` after its two prologue lines."""
    lines = [f"def {name}(env):", "    _d = env.descriptors", "    _ctx = env.context"]
    lines.extend(f"    {line}" for line in body)
    code = compile("\n".join(lines), filename=f"<prairie:{name}>", mode="exec")
    namespace: dict[str, Any] = dict(emitter.globals)
    exec(code, namespace)  # noqa: S102 - generating our own validated code
    return namespace[name]


def compile_block(
    block: ActionBlock,
    helpers: HelperRegistry,
    name: str = "block",
    tracer=None,
) -> Callable[[ActionEnv], None]:
    """Compile an action block to ``fn(env) -> None``.

    Falls back to the interpreter when the block contains opaque Python
    actions (their behaviour cannot be code-generated); the code shape
    is described at :class:`_Emitter`.  ``tracer`` (optional) brackets
    the codegen+exec in a ``prairie.compile_block`` span — compilation
    happens once at translation time, so the span shows up in
    translation traces, never in the search hot path.
    """
    with span(tracer, "prairie.compile_block", block=name):
        if any(isinstance(stmt, PyAction) for stmt in block):
            return block.execute
        if not block.statements:
            return _noop
        emitter = _Emitter(helpers)
        body: "list[str]" = []
        for stmt in block.statements:
            body.extend(emitter.statement(stmt))  # type: ignore[arg-type]
        return _compile(body, emitter, name)


def compile_test(
    test: Test, helpers: HelperRegistry, name: str = "test", tracer=None
) -> Callable[[ActionEnv], bool]:
    """Compile a rule test to ``fn(env) -> bool`` (same code shape as
    :func:`compile_block`: hoisting lines, then the return)."""
    with span(tracer, "prairie.compile_test", test=name):
        if isinstance(test, PyTest):
            return test.evaluate
        assert isinstance(test, TestExpr)
        if test.is_trivially_true:
            return _always_true
        emitter = _Emitter(helpers)
        expression = emitter.expr(test.expr)
        return _compile(
            [*emitter._pending, f"return bool({expression})"], emitter, name
        )


def _noop(env: ActionEnv) -> None:
    return None


def _always_true(env: ActionEnv) -> bool:
    return True

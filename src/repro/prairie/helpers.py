"""Helper functions callable from rule actions and tests.

The paper's rules lean on *helper functions* — ``is_associative``,
``cardinality``, ``union`` and the like (Figure 3).  Prairie keeps helpers
in a registry owned by the rule set, so the DSL can resolve calls by name
and the P2V translator can carry them across unchanged.

Helpers come in two flavours:

* **pure** helpers compute from their arguments only (``union``, ``log``);
* **contextual** helpers additionally receive the optimization context as
  their first parameter (catalog lookups, statistics).  In rule text both
  look identical; the registry knows which calling convention to use.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Mapping

from repro.algebra.properties import DONT_CARE
from repro.errors import ActionError, RuleSetError


class HelperRegistry:
    """Name → helper function mapping with pure/contextual dispatch."""

    def __init__(self) -> None:
        self._pure: dict[str, Callable[..., Any]] = {}
        self._contextual: dict[str, Callable[..., Any]] = {}

    def register(
        self, name: str, fn: Callable[..., Any], pure: bool = True
    ) -> Callable[..., Any]:
        """Register ``fn`` under ``name``.  Duplicate names are an error."""
        if name in self._pure or name in self._contextual:
            raise RuleSetError(f"duplicate helper {name!r}")
        if pure:
            self._pure[name] = fn
        else:
            self._contextual[name] = fn
        return fn

    def contextual(self, name: str) -> Callable[..., Any]:
        """Decorator form: ``@helpers.contextual("card")``."""

        def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
            return self.register(name, fn, pure=False)

        return wrap

    def pure(self, name: str) -> Callable[..., Any]:
        """Decorator form: ``@helpers.pure("union")``."""

        def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
            return self.register(name, fn, pure=True)

        return wrap

    def __contains__(self, name: str) -> bool:
        return name in self._pure or name in self._contextual

    def is_pure(self, name: str) -> bool:
        """True when ``name`` is registered as a pure helper."""
        if name in self._pure:
            return True
        if name in self._contextual:
            return False
        raise ActionError(f"unknown helper function {name!r}")

    def get_function(self, name: str) -> Callable[..., Any]:
        """The raw callable (used by the rule compiler)."""
        if name in self._pure:
            return self._pure[name]
        if name in self._contextual:
            return self._contextual[name]
        raise ActionError(f"unknown helper function {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(set(self._pure) | set(self._contextual)))

    def call(self, name: str, context: Any, args: "list[Any]") -> Any:
        if name in self._pure:
            fn = self._pure[name]
            try:
                return fn(*args)
            except ActionError:
                raise
            except Exception as exc:  # noqa: BLE001 - surfaced with context
                raise ActionError(f"helper {name}({args!r}) failed: {exc}") from exc
        if name in self._contextual:
            fn = self._contextual[name]
            try:
                return fn(context, *args)
            except ActionError:
                raise
            except Exception as exc:  # noqa: BLE001
                raise ActionError(f"helper {name}({args!r}) failed: {exc}") from exc
        raise ActionError(f"unknown helper function {name!r}")

    def copy(self) -> "HelperRegistry":
        clone = HelperRegistry()
        clone._pure.update(self._pure)
        clone._contextual.update(self._contextual)
        return clone

    def merged_with(self, other: "HelperRegistry") -> "HelperRegistry":
        clone = self.copy()
        for name, fn in other._pure.items():
            if name not in clone:
                clone._pure[name] = fn
        for name, fn in other._contextual.items():
            if name not in clone:
                clone._contextual[name] = fn
        return clone


# ---------------------------------------------------------------------------
# Built-in pure helpers (available to every rule set)
# ---------------------------------------------------------------------------


def _as_tuple(value: Any) -> tuple:
    if value is DONT_CARE or value is None:
        return ()
    if isinstance(value, tuple):
        return value
    if isinstance(value, (list, frozenset, set)):
        return tuple(value)
    return (value,)


# Memo for ``union`` — the single busiest pure helper (every JOIN/MAT
# rule action concatenates attribute lists through it, with a handful of
# distinct operand combinations per query).  Bounded: a full table is
# cleared and refilled, so a long-running process keeps memoizing the
# current queries without growing.
_UNION_MEMO: dict = {}
_UNION_MEMO_LIMIT = 1 << 12


def union(*parts: Any) -> tuple:
    """Order-preserving union of attribute lists (first occurrence wins)."""
    key = None
    try:
        hit = _UNION_MEMO.get(parts)
    except TypeError:  # unhashable operand (e.g. a list)
        hit = None
    else:
        if hit is not None:
            return hit
        key = parts
    out: dict = {}
    for part in parts:
        for item in _as_tuple(part):
            out[item] = None
    result = tuple(out)
    if key is not None:
        if len(_UNION_MEMO) >= _UNION_MEMO_LIMIT:
            _UNION_MEMO.clear()
        _UNION_MEMO[key] = result
    return result


def intersect(a: Any, b: Any) -> tuple:
    """Order-preserving intersection of two attribute lists."""
    right = set(_as_tuple(b))
    return tuple(x for x in _as_tuple(a) if x in right)


def difference(a: Any, b: Any) -> tuple:
    """Elements of ``a`` not in ``b``, order preserved."""
    right = set(_as_tuple(b))
    return tuple(x for x in _as_tuple(a) if x not in right)


def contains(collection: Any, item: Any) -> bool:
    """Membership test usable from rule text."""
    return item in _as_tuple(collection)


def cardinality(value: Any) -> int:
    """Length of a list/tuple value (the paper's ``cardinality`` helper)."""
    return len(_as_tuple(value))


def safe_log(x: Any) -> float:
    """Natural log, clamped so log of tiny cardinalities stays finite."""
    return math.log(max(float(x), 1.0))


def safe_log2(x: Any) -> float:
    """Base-2 log, clamped at 1."""
    return math.log2(max(float(x), 1.0))


def default_helpers() -> HelperRegistry:
    """A registry preloaded with the generic arithmetic/set helpers.

    Rule sets extend this with domain helpers (``is_associative``,
    selectivity estimators, …) — see :mod:`repro.optimizers.helpers`.
    """
    registry = HelperRegistry()
    registry.register("union", union)
    registry.register("intersect", intersect)
    registry.register("difference", difference)
    registry.register("contains", contains)
    registry.register("cardinality", cardinality)
    registry.register("log", safe_log)
    registry.register("log2", safe_log2)
    registry.register("min", lambda *xs: min(xs))
    registry.register("max", lambda *xs: max(xs))
    registry.register("ceil", lambda x: math.ceil(x))
    registry.register("floor", lambda x: math.floor(x))
    registry.register("abs", lambda x: abs(x))
    return registry

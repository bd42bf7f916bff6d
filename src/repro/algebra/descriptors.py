"""Descriptors: the uniform node annotations of the Prairie model.

A *descriptor* is a list of ⟨property, value⟩ annotations attached to a
node of an operator tree (paper Section 2.1).  Every node — operator,
algorithm, or stored file — has exactly one descriptor, and all
descriptors of a rule set share one :class:`~repro.algebra.properties.DescriptorSchema`.

Descriptors support attribute-style access (``d.tuple_order``) matching the
``D.property`` notation of the paper, plus cheap copying: rule actions
copy whole descriptors constantly (``D5 = D3;``), so ``copy()`` is a flat
dict copy.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterator, Mapping

from repro.algebra.properties import DescriptorSchema, DONT_CARE
from repro.errors import DescriptorError

_RESERVED = frozenset({"_schema", "_values"})

# Value getters per projected names tuple: ``getter(values)`` is the
# projection's values as a tuple, gathered in C.  Engines project a few
# schema-stable tuples; the table is cleared if it ever fills.
_GETTERS: "dict[tuple, Callable[[dict], tuple]]" = {}
_GETTERS_LIMIT = 256


def values_getter(names: "tuple[str, ...]") -> "Callable[[dict], tuple]":
    """``getter(values)``: the values of ``names`` in a descriptor's
    ``_values`` dict, as a tuple (list values are not frozen)."""
    getter = _GETTERS.get(names)
    if getter is None:
        if len(names) == 1:
            name = names[0]
            getter = lambda values: (values[name],)  # noqa: E731
        elif names:
            getter = itemgetter(*names)
        else:
            getter = lambda values: ()  # noqa: E731
        if len(_GETTERS) >= _GETTERS_LIMIT:
            _GETTERS.clear()
        _GETTERS[names] = getter
    return getter


class Descriptor:
    """A mutable property→value mapping validated against a schema.

    Attribute access reads properties (``d.cost``); attribute assignment
    writes them (``d.cost = 4.0``) and validates against the schema.
    Mapping-style access is also provided because generated code and the
    DSL interpreter address properties by name strings.

    A descriptor is its schema and its values, nothing derived: compiled
    rule actions and the generated engine code write ``_values``
    directly, so no other state could be kept in step with them.
    """

    __slots__ = ("_schema", "_values")

    def __init__(
        self,
        schema: DescriptorSchema,
        values: "Mapping[str, Any] | None" = None,
    ) -> None:
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_values", schema.defaults())
        if values:
            for name, value in values.items():
                self[name] = value

    # -- mapping protocol ------------------------------------------------

    @property
    def schema(self) -> DescriptorSchema:
        return self._schema

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise DescriptorError(f"unknown property {name!r}") from None

    def __setitem__(self, name: str, value: Any) -> None:
        if name not in self._schema:
            raise DescriptorError(f"unknown property {name!r}")
        self._schema.validate_value(name, value)
        self._values[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def get(self, name: str, default: Any = None) -> Any:
        return self._values.get(name, default)

    def items(self):
        return self._values.items()

    def keys(self):
        return self._values.keys()

    def values(self):
        return self._values.values()

    # -- attribute-style access (the paper's ``D.property`` notation) ----

    def __getattr__(self, name: str) -> Any:
        if name in _RESERVED:
            raise AttributeError(name)
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(
                f"descriptor has no property {name!r}"
            ) from None

    def __setattr__(self, name: str, value: Any) -> None:
        self[name] = value

    # -- copy semantics ----------------------------------------------------

    def copy(self) -> "Descriptor":
        """A flat copy sharing the schema (``D_new = D_old;`` in rules)."""
        clone = Descriptor.__new__(Descriptor)
        object.__setattr__(clone, "_schema", self._schema)
        object.__setattr__(clone, "_values", dict(self._values))
        return clone

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> tuple:
        """Pickle as (schema, values).

        Required because the default slot-state protocol restores
        attributes through ``setattr``, which this class routes into
        property writes.  Plans, descriptors, and plan-cache entries
        cross process boundaries in the batch optimizer
        (:mod:`repro.parallel`), so this is the IPC contract.
        """
        return (self._schema, self._values)

    def __setstate__(self, state: tuple) -> None:
        schema, values = state
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_values", values)

    def assign_from(self, other: "Descriptor") -> None:
        """Overwrite all of this descriptor's values with ``other``'s.

        This implements the whole-descriptor assignment statements of rule
        actions (``D5 = D3;``) on an *existing* descriptor object, which is
        what the action interpreter needs: right-hand-side descriptors must
        never be aliased, only copied (paper Section 2.3: left-hand-side
        descriptors of a rule are never changed by the rule's actions).
        """
        if other._schema is not self._schema and other._schema != self._schema:
            raise DescriptorError("cannot assign descriptors across schemas")
        self._values.clear()
        self._values.update(other._values)

    # -- projections used by P2V / the Volcano engine ----------------------

    def project(self, names: "tuple[str, ...]") -> "tuple[Any, ...]":
        """The values of ``names`` in the given order (hash-friendly).

        Used by the memo table to extract the operator-argument part of a
        descriptor, and by physical-property vectors.  List values are
        frozen to tuples so the projection is hashable.
        """
        values = self._values
        # Every write path preserves the schema's full key set (defaults()
        # seeds it, __setitem__ validates membership, copy() and
        # assign_from keep it whole), so direct subscripting is
        # safe; the except path covers hand-built mappings in tests.
        try:
            projection = values_getter(names)(values)
        except KeyError:
            projection = tuple([values.get(name, DONT_CARE) for name in names])
        if list in map(type, projection):
            projection = tuple(
                [tuple(value) if type(value) is list else value for value in projection]
            )
        return projection

    def as_dict(self) -> dict[str, Any]:
        """A plain-dict snapshot of the current values."""
        return dict(self._values)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Descriptor):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self.project(self._schema.names))

    def __repr__(self) -> str:
        interesting = {
            k: v for k, v in self._values.items() if v is not DONT_CARE
        }
        return f"Descriptor({interesting})"

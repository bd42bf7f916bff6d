"""Hash-consing (interning) for descriptors and operator trees.

Deep structural equality checks and repeated fingerprinting dominate two
hot paths of a high-throughput optimizer service:

* the memo allocates one :class:`~repro.algebra.descriptors.Descriptor`
  per memo expression even though most of them carry identical values
  (the schema defaults, or one of a handful of argument combinations);
* the cross-query plan cache re-walks whole operator trees to compute
  their canonical fingerprint on every lookup.

This module provides *hash-consed* canonical forms for both:

* :class:`DescriptorInterner` maps descriptors to one canonical instance
  per distinct value set, so structural equality of interned descriptors
  is a pointer check and the memo stores far fewer objects;
* :class:`InternedLeaf` / :class:`InternedNode` are immutable operator
  tree nodes interned in a :class:`TreeInterner`, with the tree
  fingerprint memoized *on the node* — fingerprinting a shared subtree a
  second time is O(1) regardless of its size.

Interned trees pickle by value and **reconstruct into the receiving
process's intern table** (:func:`_reintern_leaf` / :func:`_reintern_node`),
so shipping the same interned query to another process twice yields the
same canonical objects there.  Only descriptor interning is wired into a
request path (the memo); no request path interns operator trees yet, so
plan-cache probes and batch IPC still see plain
:class:`~repro.algebra.expressions.Expression` trees and take the
tree-walking fingerprint path.

Interned nodes are *frozen by contract*: their descriptors are owned by
the intern table and must never be written through.  :func:`thaw_tree`
returns a fresh mutable :class:`~repro.algebra.expressions.Expression`
tree for callers (the search engine, the execution engine) that need to
annotate nodes.
"""

from __future__ import annotations

from typing import Union

from repro.algebra.descriptors import Descriptor
from repro.algebra.expressions import Expression, StoredFileRef
from repro.algebra.operations import DatabaseOperation

#: Soft cap per intern table.  Past it, candidates are returned
#: un-interned (correct, just not shared) so a pathological workload
#: cannot grow a table without bound.
DEFAULT_MAX_ENTRIES = 65536


class DescriptorInterner:
    """Canonical descriptor instances for one schema, keyed by value.

    ``canonical(d)`` returns the first descriptor ever seen with ``d``'s
    exact values (``d`` itself when new).  Canonical descriptors are
    shared — callers must treat them as immutable; every engine path
    that writes a descriptor copies it first, which is already the
    memo's contract.  The value key is the full-schema projection
    (hashable: list values frozen to tuples), double-checked against the
    raw value dict so a list-valued and a tuple-valued descriptor are
    never conflated.

    Whole-descriptor sharing is rare inside one memo (every m-expr's
    argument/stream combination tends to be distinct), so the interner
    also hash-conses at the granularity where the real redundancy lives:
    the *values* inside descriptors.  Rule actions rebuild the same
    predicate trees and attribute tuples over and over — a Q7 memo
    retains ~10k identity-distinct value objects that collapse to ~1.2k
    by value.  :meth:`canonical_values` rewires each slot of a
    descriptor's value dict to one canonical equal object.  This is
    exactly the aliasing ``Descriptor.copy()`` already creates (a flat
    dict copy shares value objects), and the engine's contract forbids
    in-place value mutation — all writes replace whole values — so the
    sharing is invisible to every reader.
    """

    __slots__ = (
        "schema",
        "max_entries",
        "hits",
        "inserts",
        "rejects",
        "values_shared",
        "values_unique",
        "_names",
        "_table",
        "_value_table",
    )

    def __init__(self, schema, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.schema = schema
        self.max_entries = max_entries
        self._names = schema.names
        self._table: dict[tuple, Descriptor] = {}
        self._value_table: dict[tuple, object] = {}
        self.hits = 0      # canonical() returned an older, shared instance
        self.inserts = 0   # canonical() adopted the candidate as canonical
        self.rejects = 0   # value-dict mismatch or table full: not shared
        self.values_shared = 0  # value slots rewired to a canonical object
        self.values_unique = 0  # value slots that became the canonical

    def canonical(self, descriptor: Descriptor) -> Descriptor:
        key = descriptor.project(self._names)
        found = self._table.get(key)
        if found is not None:
            if found is descriptor:
                return descriptor
            if found._values == descriptor._values:
                self.hits += 1
                return found
            # Same frozen projection, different raw values (list vs
            # tuple).  Sharing would change what copy() hands to rule
            # actions, so keep the candidate private (its values can
            # still alias canonical objects).
            self.rejects += 1
            self.canonical_values(descriptor)
            return descriptor
        if len(self._table) >= self.max_entries:
            self.rejects += 1
            self.canonical_values(descriptor)
            return descriptor
        self._table[key] = descriptor
        self.inserts += 1
        self.canonical_values(descriptor)
        return descriptor

    def canonical_values(self, descriptor: Descriptor) -> int:
        """Rewire the descriptor's value slots to canonical equal objects.

        Returns the number of slots that now alias a pre-existing
        canonical object (the memory actually saved).  Keys carry the
        value's class so ``True``/``1`` and ``1``/``1.0`` never
        conflate; lists are keyed by their frozen tuple but the
        canonical object stays a list (readers see the same type).
        Unhashable values (nested lists, dicts) are left private.
        """
        shared = 0
        table = self._value_table
        values = descriptor._values
        if len(table) >= self.max_entries:
            return 0
        for name, value in values.items():
            cls = value.__class__
            try:
                key = (cls, tuple(value)) if cls is list else (cls, value)
                found = table.get(key)
            except TypeError:
                continue
            if found is None:
                table[key] = value
                self.values_unique += 1
            elif found is not value:
                values[name] = found
                shared += 1
        self.values_shared += shared
        return shared

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        self._table.clear()
        self._value_table.clear()


class InternedLeaf:
    """A hash-consed stored-file leaf (immutable by contract)."""

    __slots__ = ("name", "descriptor")

    def __init__(self, name: str, descriptor: Descriptor) -> None:
        self.name = name
        self.descriptor = descriptor

    def fingerprint(self, argument_properties: tuple) -> tuple:
        """Files are identified by name alone (mirrors ``MExpr.key``)."""
        return ("file", self.name)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"InternedLeaf({self.name})"

    def __reduce__(self):
        return (_reintern_leaf, (self.name, self.descriptor))


class InternedNode:
    """A hash-consed operator tree node with a memoized fingerprint.

    ``inputs`` are themselves interned nodes/leaves, so two structurally
    identical trees interned in the same table are *the same object* —
    deep equality is ``a is b``.  ``fingerprint`` caches per
    argument-property tuple on the node itself: re-fingerprinting a
    shared subtree costs one dict lookup, not a tree walk.
    """

    __slots__ = ("op", "inputs", "descriptor", "_fingerprints")

    def __init__(
        self,
        op: DatabaseOperation,
        inputs: tuple,
        descriptor: Descriptor,
    ) -> None:
        self.op = op
        self.inputs = inputs
        self.descriptor = descriptor
        self._fingerprints: dict = {}

    def fingerprint(self, argument_properties: tuple) -> tuple:
        cached = self._fingerprints.get(argument_properties)
        if cached is None:
            global _fingerprint_computes
            _fingerprint_computes += 1
            cached = (
                self.op.name,
                self.descriptor.project(argument_properties),
                tuple(
                    child.fingerprint(argument_properties)
                    for child in self.inputs
                ),
            )
            self._fingerprints[argument_properties] = cached
        return cached

    def __str__(self) -> str:
        args = ", ".join(str(child) for child in self.inputs)
        return f"{self.op.name}({args})"

    def __repr__(self) -> str:
        return f"InternedNode({self!s})"

    def __reduce__(self):
        return (_reintern_node, (self.op, self.inputs, self.descriptor))


InternedTree = Union[InternedNode, InternedLeaf]

#: Count of actual fingerprint computations (cache misses).  Tests use
#: the delta to prove that re-visiting a shared subtree is O(1).
_fingerprint_computes = 0


def fingerprint_computes() -> int:
    return _fingerprint_computes


class TreeInterner:
    """Hash-consing table for whole operator trees.

    Nodes are keyed by (operator name, canonical children, canonical
    descriptor): because children and descriptors are canonicalized
    first, the key compares descriptors by value exactly once — after
    that, equal trees collapse to one object and all equality is
    identity.  One :class:`DescriptorInterner` is kept per descriptor
    schema (schemas are compared by identity; descriptors of distinct
    schemas never share).
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.max_entries = max_entries
        self._nodes: dict[tuple, InternedTree] = {}
        self._descriptors: dict = {}  # schema (by value) -> DescriptorInterner
        # Identity fast path: unpickling materializes a fresh (equal)
        # schema object per load, and hashing a schema by value walks all
        # its property definitions.  The id map pins each seen schema
        # object (so ids cannot be recycled) and resolves repeats in one
        # dict hit.
        self._descriptors_by_id: dict = {}
        self.hits = 0
        self.inserts = 0

    # -- descriptor tables -------------------------------------------------

    def descriptor_interner(self, schema) -> DescriptorInterner:
        cached = self._descriptors_by_id.get(id(schema))
        if cached is not None:
            return cached[1]
        interner = self._descriptors.get(schema)
        if interner is None:
            interner = DescriptorInterner(schema, self.max_entries)
            self._descriptors[schema] = interner
        self._descriptors_by_id[id(schema)] = (schema, interner)
        return interner

    # -- interning ---------------------------------------------------------

    def intern(self, tree) -> InternedTree:
        """The canonical interned form of an operator tree or plan.

        Accepts mutable trees (:class:`Expression` / ``StoredFileRef``)
        and already-interned nodes (returned unchanged if they are this
        table's canonical instance).
        """
        if isinstance(tree, (InternedNode, InternedLeaf)):
            return self._adopt(tree)
        if isinstance(tree, StoredFileRef):
            descriptor = self.descriptor_interner(
                tree.descriptor.schema
            ).canonical(tree.descriptor.copy())
            return self._intern_leaf(tree.name, descriptor)
        children = tuple(self.intern(child) for child in tree.inputs)
        descriptor = self.descriptor_interner(
            tree.descriptor.schema
        ).canonical(tree.descriptor.copy())
        return self._intern_node(tree.op, children, descriptor)

    def _adopt(self, node: InternedTree) -> InternedTree:
        """Re-intern a node from another table (e.g. after unpickling)."""
        if isinstance(node, InternedLeaf):
            descriptor = self.descriptor_interner(
                node.descriptor.schema
            ).canonical(node.descriptor)
            return self._intern_leaf(node.name, descriptor)
        children = tuple(self._adopt(child) for child in node.inputs)
        descriptor = self.descriptor_interner(
            node.descriptor.schema
        ).canonical(node.descriptor)
        return self._intern_node(node.op, children, descriptor)

    def _intern_leaf(self, name: str, descriptor: Descriptor) -> InternedLeaf:
        key = ("file", name, descriptor)
        found = self._nodes.get(key)
        if found is not None:
            self.hits += 1
            return found
        leaf = InternedLeaf(name, descriptor)
        if len(self._nodes) < self.max_entries:
            self._nodes[key] = leaf
            self.inserts += 1
        return leaf

    def _intern_node(
        self, op: DatabaseOperation, children: tuple, descriptor: Descriptor
    ) -> InternedNode:
        # Children are canonical objects, so the tuple hashes/compares
        # by identity; the descriptor is canonical too, so its (value
        # based) hash is computed at most once per distinct value set.
        key = (op.name, tuple(id(child) for child in children), descriptor)
        found = self._nodes.get(key)
        if found is not None:
            self.hits += 1
            return found
        node = InternedNode(op, children, descriptor)
        if len(self._nodes) < self.max_entries:
            self._nodes[key] = node
            self.inserts += 1
        return node

    # -- maintenance -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def stats(self) -> dict:
        return {
            "nodes": len(self._nodes),
            "hits": self.hits,
            "inserts": self.inserts,
            "descriptor_tables": len(self._descriptors),
            "descriptors": sum(len(t) for t in self._descriptors.values()),
        }

    def clear(self) -> None:
        self._nodes.clear()
        self._descriptors.clear()
        self._descriptors_by_id.clear()
        self.hits = 0
        self.inserts = 0


#: Process-wide intern table; what unpickling reconstructs into, and the
#: default for :func:`intern_tree`.
GLOBAL_INTERNER = TreeInterner()


def intern_tree(tree, interner: "TreeInterner | None" = None) -> InternedTree:
    """Hash-cons an operator tree (default: the process-wide table)."""
    if interner is None:
        interner = GLOBAL_INTERNER
    return interner.intern(tree)


def thaw_tree(node: InternedTree) -> "Expression | StoredFileRef":
    """A fresh, fully mutable operator tree from an interned one.

    Every node gets its own descriptor copy; the result is safe to hand
    to code that annotates trees in place (initializers, executors).
    """
    if isinstance(node, InternedLeaf):
        return StoredFileRef(node.name, node.descriptor.copy())
    return Expression(
        node.op,
        tuple(thaw_tree(child) for child in node.inputs),
        node.descriptor.copy(),
    )


def clear_intern_tables() -> None:
    """Reset the process-wide table (tests and long-running services)."""
    GLOBAL_INTERNER.clear()


def _reintern_leaf(name: str, descriptor: Descriptor) -> InternedLeaf:
    """Pickle hook: leaves reconstruct into the receiving intern table."""
    canonical = GLOBAL_INTERNER.descriptor_interner(
        descriptor.schema
    ).canonical(descriptor)
    return GLOBAL_INTERNER._intern_leaf(name, canonical)


def _reintern_node(
    op: DatabaseOperation, inputs: tuple, descriptor: Descriptor
) -> InternedNode:
    """Pickle hook: nodes reconstruct bottom-up into the intern table.

    ``inputs`` are already re-interned (pickle reconstructs children
    first and memoizes shared subtrees), so the node key is canonical.
    """
    canonical = GLOBAL_INTERNER.descriptor_interner(
        descriptor.schema
    ).canonical(descriptor)
    return GLOBAL_INTERNER._intern_node(op, inputs, canonical)

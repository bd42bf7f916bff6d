"""The memo table: equivalence classes of logically equivalent expressions.

Volcano (like its predecessor EXODUS and successors such as Cascades)
never materializes whole operator trees during search.  Instead it keeps
a *memo*: a set of **groups** (equivalence classes), each containing
**memo expressions** (m-exprs) — single operator applications whose
inputs are references to other groups.  Every operator tree in the search
space corresponds to a choice of one m-expr per group reachable from the
root group.

Figure 14 of the paper plots the number of equivalence classes against
query size; :attr:`Memo.group_count` is exactly that number.

Identity & duplicate elimination
--------------------------------
Two m-exprs are the same logical expression iff they apply the same
operator to the same input groups with the same *operator argument*:
the descriptor projected onto the rule set's ``argument_properties``
(e.g. the join predicate and the cardinality estimate).  The other
three property classes stay out of the key: the cost, the physical
properties (the requested tuple order) and the *derived stream
properties* (``attributes``, ``tuple_size``), which P2V infers because
T-rules compute them from the inputs' own values.  Two derivation paths
may list a join's attributes in different orders; they still reach one
m-expr.  The memo hashes this identity so transformation rules can fire
to a fixpoint without looping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.algebra.descriptors import Descriptor
from repro.algebra.expressions import Expression, StoredFileRef
from repro.errors import SearchError


@dataclass(slots=True)
class MExpr:
    """One memo expression: an operator over input groups, or a file leaf.

    ``op_name`` is an operator name for interior expressions and the file
    name for leaves (``is_file`` distinguishes them).  ``descriptor`` is
    the expression's full Prairie descriptor: argument properties give the
    expression its identity (:meth:`key`); derived stream properties
    (attributes, tuple size) describe its output and are read through the
    group's logical descriptor.

    ``fired_mask`` is search-engine bookkeeping: a bitmask over the rule
    set's dense trans-rule ids recording which rules already fired on this
    m-expr, replacing a global set of ``(rule name, m-expr)`` tuples.
    """

    op_name: str
    inputs: tuple[int, ...]
    descriptor: Descriptor
    is_file: bool = False
    group_id: int = -1
    fired_mask: int = 0

    def key(self, argument_properties: tuple[str, ...]) -> tuple:
        """The m-expr's identity for duplicate elimination."""
        if self.is_file:
            return ("file", self.op_name)
        return (self.op_name, self.inputs, self.descriptor.project(argument_properties))

    def __str__(self) -> str:
        if self.is_file:
            return self.op_name
        args = ", ".join(f"g{gid}" for gid in self.inputs)
        return f"{self.op_name}({args})"


@dataclass(slots=True)
class Group:
    """An equivalence class: all known logically equivalent m-exprs.

    ``logical_descriptor`` describes the stream every member produces
    (attributes, cardinality…) — by definition of logical equivalence it
    is shared by all members; the memo takes it from the first inserted
    member, so its derived properties (say, the order ``attributes``
    lists the columns in) are those of the first derivation.  ``winners`` caches the best physical plan found per required
    physical-property vector (filled in by the search engine).

    ``by_op`` indexes the members by operator name (maintained by
    :meth:`Memo.insert`); nested pattern matching enumerates only the
    members whose root can possibly match instead of scanning the whole
    group.  Buckets preserve insertion order, so iterating one visits the
    same members in the same relative order as a scan of ``mexprs``
    would — searches driven through the index find bit-identical plans.
    """

    gid: int
    logical_descriptor: Descriptor
    mexprs: list[MExpr] = field(default_factory=list)
    winners: dict = field(default_factory=dict)
    by_op: dict = field(default_factory=dict)
    explored: bool = False

    @property
    def is_file_group(self) -> bool:
        return len(self.mexprs) == 1 and self.mexprs[0].is_file

    def __iter__(self) -> Iterator[MExpr]:
        return iter(self.mexprs)

    def __len__(self) -> int:
        return len(self.mexprs)


class Memo:
    """The memo table: groups plus the global duplicate-elimination index."""

    def __init__(self, argument_properties: tuple[str, ...]) -> None:
        self.argument_properties = argument_properties
        self.groups: list[Group] = []
        self._index: dict[tuple, MExpr] = {}
        # Trace emit hook (``tracer.emit`` or None).  The search engine
        # wires it up when a tracer is attached; standalone memos stay
        # silent.  One ``is not None`` check per structural mutation —
        # the tracing-off overhead the perf benchmark bounds.
        self._emit = None

    # -- construction ---------------------------------------------------------

    def group(self, gid: int) -> Group:
        try:
            return self.groups[gid]
        except IndexError:
            raise SearchError(f"no group g{gid}") from None

    def new_group(self, logical_descriptor: Descriptor) -> Group:
        group = Group(len(self.groups), logical_descriptor)
        self.groups.append(group)
        if self._emit is not None:
            self._emit("group_created", gid=group.gid)
        return group

    def probe(self, key: tuple) -> "MExpr | None":
        """The canonical m-expr for an identity key, if already known.

        ``key`` must be what :meth:`MExpr.key` would produce for this
        memo's argument properties.  The search engine's hot path probes
        before materializing a candidate (descriptor copy + m-expr
        allocation are wasted work for the many re-derived duplicates).
        """
        return self._index.get(key)

    def insert(
        self,
        mexpr: MExpr,
        group_id: "int | None" = None,
        allow_cross_group: bool = False,
        key: "tuple | None" = None,
    ) -> tuple[MExpr, bool]:
        """Insert an m-expr, deduplicating globally.

        Returns ``(canonical m-expr, inserted)``.  When the expression is
        already known, the existing m-expr is returned and nothing
        changes — in particular it is *not* moved between groups.  When
        new: it is appended to ``group_id`` if given, else to a fresh
        group whose logical descriptor is the m-expr's descriptor.

        A duplicate that lives in a *different* group than an explicitly
        requested ``group_id`` raises :class:`SearchError` by default: a
        caller that merely asserts membership (tests, tools, bulk
        loaders) would otherwise silently receive a foreign canonical and
        wire plans across unrelated equivalence classes.  The search
        engine's rule application is the sanctioned exception — there the
        fired rule *proves* the two groups logically equal (the memo
        keeps them separate, the standard behaviour for this
        reproduction's rule sets) — and opts in via
        ``allow_cross_group=True``.

        ``key`` may be passed when the caller already computed the
        m-expr's identity (e.g. for a :meth:`probe`); it must equal
        ``mexpr.key(self.argument_properties)``.
        """
        if key is None:
            key = mexpr.key(self.argument_properties)
        existing = self._index.get(key)
        if existing is not None:
            if (
                group_id is not None
                and existing.group_id != group_id
                and not allow_cross_group
            ):
                raise SearchError(
                    f"m-expr {mexpr} requested for group g{group_id} already "
                    f"lives in group g{existing.group_id}: cross-group "
                    f"duplicate (pass allow_cross_group=True only if the "
                    f"two groups are provably equivalent)"
                )
            return existing, False
        if group_id is None:
            group = self.new_group(mexpr.descriptor)
        else:
            group = self.group(group_id)
        mexpr.group_id = group.gid
        group.mexprs.append(mexpr)
        bucket = group.by_op.get(mexpr.op_name)
        if bucket is None:
            group.by_op[mexpr.op_name] = [mexpr]
        else:
            bucket.append(mexpr)
        self._index[key] = mexpr
        if self._emit is not None:
            self._emit(
                "mexpr_inserted",
                gid=group.gid,
                op=mexpr.op_name,
                inputs=mexpr.inputs,
                is_file=mexpr.is_file,
            )
        return mexpr, True

    def add_file(self, leaf: StoredFileRef) -> MExpr:
        """Intern a stored-file leaf (one group per distinct file)."""
        mexpr = MExpr(leaf.name, (), leaf.descriptor, is_file=True)
        canonical, _created = self.insert(mexpr)
        return canonical

    def from_expression(self, tree: "Expression | StoredFileRef") -> Group:
        """Encode an initialized operator tree; returns the root group."""
        mexpr = self._encode(tree)
        return self.group(mexpr.group_id)

    def _encode(self, node: "Expression | StoredFileRef") -> MExpr:
        if isinstance(node, StoredFileRef):
            return self.add_file(node)
        child_groups = tuple(self._encode(c).group_id for c in node.inputs)
        mexpr = MExpr(node.op.name, child_groups, node.descriptor.copy())
        canonical, _created = self.insert(mexpr)
        return canonical

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Memos pickle without their process-local trace hook.

        ``_emit`` may be a bound tracer method, which does not belong to
        the memo's value, so a pickled memo leaves it out.  The batch
        optimizer itself ships no memos: plan-cache entries keep only a
        :class:`~repro.volcano.plancache.MemoSummary`.
        """
        state = self.__dict__.copy()
        state["_emit"] = None
        return state

    # -- statistics -----------------------------------------------------------

    @property
    def group_count(self) -> int:
        """Number of equivalence classes (the paper's Figure 14 metric)."""
        return len(self.groups)

    @property
    def mexpr_count(self) -> int:
        return len(self._index)

    def stats(self) -> dict[str, int]:
        return {
            "groups": self.group_count,
            "mexprs": self.mexpr_count,
        }

    def __str__(self) -> str:
        lines = []
        for group in self.groups:
            members = "; ".join(str(m) for m in group.mexprs)
            lines.append(f"g{group.gid}: {members}")
        return "\n".join(lines)

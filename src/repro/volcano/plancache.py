"""Cross-query plan caching for the Volcano search engine.

The search engine memoizes *within* one :meth:`VolcanoOptimizer.optimize`
call (the memo's winner tables), but every call starts from an empty
memo: a service optimizing the same — or structurally identical — query
twice repeats the whole search.  The :class:`PlanCache` closes that gap:
a bounded, LRU-evicting map from a query's *logical identity* to its
finished optimization result, shared across calls (and, if desired,
across optimizer instances over the same rule set and catalog).

Keying
------
Two optimization requests are interchangeable exactly when all of these
coincide:

* the **canonical tree fingerprint** — the operator tree's recursive
  shape including each node's argument-property projection (the same
  identity notion the memo's duplicate elimination uses, so two trees
  that would encode to the same memo groups share a fingerprint);
* the **required physical-property vector**;
* the **rule set** (by object identity: a different rule set searches a
  different plan space);
* the **search options** (heuristics change which plan is found);
* the **catalog state** — entries record the catalog's structural
  :meth:`~repro.catalog.schema.Catalog.state_token` at store time and
  are valid exactly while the probing catalog's token equals it, so any
  catalog mutation silently invalidates every plan computed against the
  old state, and an entry stays usable in another process against a
  structurally identical catalog.

Entries hold no process-local object: the plan, its cost, a
:class:`MemoSummary` of the memo that found it, and the catalog token.
They are portable as stored — :meth:`PlanCache.snapshot` only rekeys
them — so a hit behaves the same whichever process stored the entry.

Hits return a *fresh deep copy* of the cached plan (callers may annotate
or execute plans destructively) together with the cached cost and the
memo summary; only a cold search returns its full memo.
Hit/miss counters are surfaced per-optimization through
:class:`~repro.volcano.search.SearchStats` and cumulatively through
:meth:`PlanCache.stats`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Union

from repro.algebra.expressions import Expression, StoredFileRef
from repro.algebra.interning import InternedLeaf, InternedNode
from repro.catalog.schema import Catalog

PlanTree = Union[Expression, StoredFileRef]

DEFAULT_MAX_ENTRIES = 256


def tree_fingerprint(
    tree: PlanTree, argument_properties: "tuple[str, ...]"
) -> tuple:
    """A hashable canonical identity for an initialized operator tree.

    Mirrors :meth:`repro.volcano.memo.MExpr.key`: operator name plus the
    argument-property projection of the node's descriptor, recursively;
    stored files are identified by name alone.  Physical annotations
    (costs, orders) are deliberately excluded — they are outputs of
    optimization, not part of the query's identity.

    Hash-consed trees (:mod:`repro.algebra.interning`) take the O(1)
    path: interned nodes memoize their fingerprint, so re-fingerprinting
    a shared subtree is a dict hit instead of a tree walk.  The two
    paths produce identical tuples.
    """
    if isinstance(tree, (InternedNode, InternedLeaf)):
        return tree.fingerprint(argument_properties)
    if isinstance(tree, StoredFileRef):
        return ("file", tree.name)
    return (
        tree.op.name,
        tree.descriptor.project(argument_properties),
        tuple(
            tree_fingerprint(child, argument_properties)
            for child in tree.inputs
        ),
    )


def copy_plan(plan: PlanTree) -> PlanTree:
    """A deep copy of an access plan (fresh descriptors throughout)."""
    if isinstance(plan, StoredFileRef):
        return StoredFileRef(plan.name, plan.descriptor.copy())
    return plan.copy_tree()


@dataclass
class MemoSummary:
    """What a plan-cache entry keeps of the memo that found its plan.

    A memo is an order of magnitude bigger than the plan it produced,
    so entries keep only its two counters, which cache hits report as
    search-effort statistics (:attr:`group_count` / :attr:`mexpr_count`).
    """

    group_count: int
    mexpr_count: int

    def stats(self) -> dict[str, int]:
        return {"groups": self.group_count, "mexprs": self.mexpr_count}

    @classmethod
    def of(cls, memo: Any) -> "MemoSummary":
        return cls(memo.group_count, memo.mexpr_count)


@dataclass
class CachedPlan:
    """One plan-cache entry: the finished result plus its catalog token.

    Valid exactly when the probing catalog's
    :meth:`~repro.catalog.schema.Catalog.state_token` equals
    ``catalog_token`` — by identity first (a catalog returns the same
    token object until it changes), else by value, which is what lets
    an entry stored in one process validate against a catalog that was
    pickled into another.
    """

    plan: PlanTree
    cost: float
    memo: MemoSummary
    catalog_token: tuple

    def is_valid(self, catalog: Catalog) -> bool:
        token = catalog.state_token()
        return token is self.catalog_token or token == self.catalog_token


@dataclass
class CacheSnapshot:
    """A picklable export of plan-cache entries for one rule set.

    Produced by :meth:`PlanCache.snapshot`, consumed by
    :meth:`PlanCache.merge_snapshot`.  ``entries`` holds
    ``(portable_key, CachedPlan)`` pairs whose keys carry the
    ``ruleset_tag`` string in place of the process-local ``id(ruleset)``.
    """

    ruleset_tag: str
    entries: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def keys(self) -> "set[tuple]":
        """The portable keys of :attr:`entries`."""
        return {key for key, _entry in self.entries}


class PlanCache:
    """A bounded LRU cache of finished optimizations.

    Safe for concurrent callers: a reentrant lock guards every
    lookup/store/evict, so many optimizer instances may share one cache
    without external coordination.  The optimizers themselves are still
    single-threaded objects — only the cache is shared.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, CachedPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.merged_in = 0
        #: How many times :meth:`invalidate` ran; lets holders of copies
        #: of this cache's entries (batch workers) notice a clear.
        self.clears = 0

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- keying ---------------------------------------------------------------

    @staticmethod
    def key_for(
        ruleset: Any,
        options: Any,
        tree: PlanTree,
        required: tuple,
    ) -> tuple:
        """The cache key for one optimization request (catalog-independent;
        catalog validity is checked per entry at lookup time)."""
        return (
            id(ruleset),
            options,
            required,
            tree_fingerprint(tree, ruleset.argument_properties),
        )

    # -- lookup / store -------------------------------------------------------

    def lookup(
        self, key: tuple, catalog: Catalog, emit=None
    ) -> "CachedPlan | None":
        """The valid entry for ``key``, or ``None`` (counts hit/miss).

        Entries stored against a mutated or different catalog are
        discarded on sight and count as misses.  ``emit`` is an optional
        resolved trace hook (``tracer.emit``): when given, the probe is
        bracketed by a ``plan_cache.probe`` span enclosing one
        ``plan_cache_hit`` or ``plan_cache_miss`` event, the miss
        carrying why (``"absent"`` or ``"stale"``).
        """
        if emit is not None:
            emit("span_begin", name="plan_cache.probe")
            span_started = time.perf_counter()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                reason = "absent"
            elif not entry.is_valid(catalog):
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                reason = "stale"
                entry = None
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if emit is not None:
            if entry is None:
                emit("plan_cache_miss", reason=reason)
            else:
                emit("plan_cache_hit", cost=entry.cost)
            emit(
                "span_end",
                name="plan_cache.probe",
                elapsed_s=time.perf_counter() - span_started,
                hit=entry is not None,
            )
        return entry

    def store(
        self,
        key: tuple,
        plan: PlanTree,
        cost: float,
        memo: Any,
        catalog: Catalog,
        emit=None,
    ) -> CachedPlan:
        """Cache a finished optimization (evicting LRU past the bound).

        The plan is copied on the way in, so later caller-side mutation
        of the returned plan cannot corrupt the cache.  ``emit`` is the
        same optional trace hook :meth:`lookup` takes: when given, a
        ``plan_cache.insert`` span encloses a ``plan_cache_store`` event
        plus one ``plan_cache_evict`` per displaced entry.
        """
        if emit is not None:
            emit("span_begin", name="plan_cache.insert")
            span_started = time.perf_counter()
        entry = CachedPlan(
            plan=copy_plan(plan),
            cost=cost,
            memo=MemoSummary.of(memo),
            catalog_token=catalog.state_token(),
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if emit is not None:
                emit("plan_cache_store", cost=cost, entries=len(self._entries))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                if emit is not None:
                    emit("plan_cache_evict", entries=len(self._entries))
        if emit is not None:
            emit(
                "span_end",
                name="plan_cache.insert",
                elapsed_s=time.perf_counter() - span_started,
            )
        return entry

    # -- snapshot / merge (the batch optimizer's IPC surface) -----------------

    def snapshot(
        self,
        ruleset: Any,
        ruleset_tag: str,
        held: "set[tuple] | frozenset[tuple]" = frozenset(),
        emit=None,
    ) -> CacheSnapshot:
        """Export this cache's entries for ``ruleset`` in portable form.

        Cache keys embed ``id(ruleset)``, which is meaningless in
        another process (workers rebuild rule sets from a factory spec).
        The snapshot substitutes ``ruleset_tag`` — any string both sides
        agree names the rule set, conventionally the worker factory spec
        (``"module:attr"``).  Entries are exported as stored.  ``held``
        names portable keys the receiver already holds; those entries
        are left out, so two caches that track each other's keys
        exchange only deltas.

        ``emit`` is an optional resolved trace hook: when given, the
        export is bracketed by a ``plan_cache.snapshot`` span so batch
        traces show the IPC serialization cost.
        """
        if emit is not None:
            emit("span_begin", name="plan_cache.snapshot")
            span_started = time.perf_counter()
        with self._lock:
            items = list(self._entries.items())
        local = id(ruleset)
        exported = []
        for key, entry in items:
            if key[0] == local:
                portable_key = (ruleset_tag,) + key[1:]
                if portable_key not in held:
                    exported.append((portable_key, entry))
        result = CacheSnapshot(ruleset_tag=ruleset_tag, entries=exported)
        if emit is not None:
            emit(
                "span_end",
                name="plan_cache.snapshot",
                elapsed_s=time.perf_counter() - span_started,
                entries=len(exported),
            )
        return result

    def merge_snapshot(
        self, snapshot: "CacheSnapshot", ruleset: Any, emit=None
    ) -> int:
        """Fold a snapshot's entries in; returns how many were adopted.

        Portable keys are rebound to ``id(ruleset)`` (the caller asserts
        the snapshot's tag names this rule set).  Entries already
        present locally win, and adopted entries enter at the MRU end,
        evicting LRU past the bound as a normal store would.

        ``emit``, when given, brackets the merge in a
        ``plan_cache.merge`` span (see :meth:`snapshot`).
        """
        if emit is not None:
            emit("span_begin", name="plan_cache.merge")
            span_started = time.perf_counter()
        merged = 0
        with self._lock:
            for portable_key, entry in snapshot.entries:
                key = (id(ruleset),) + tuple(portable_key[1:])
                if key in self._entries:
                    continue
                self._entries[key] = entry
                self._entries.move_to_end(key)
                merged += 1
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            self.merged_in += merged
        if emit is not None:
            emit(
                "span_end",
                name="plan_cache.merge",
                elapsed_s=time.perf_counter() - span_started,
                merged=merged,
            )
        return merged

    # -- maintenance ----------------------------------------------------------

    def invalidate(self) -> int:
        """Drop every entry (e.g. after bulk catalog/statistics changes);
        returns how many were dropped.

        Per-catalog invalidation is automatic via catalog state tokens;
        this explicit hook exists for callers that mutate cost-relevant
        state the token cannot see (statistics refresh, helper
        reconfiguration).
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            self.clears += 1
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict[str, int]:
        """Cumulative counters (across every optimizer using this cache)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "merged_in": self.merged_in,
            }

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self._entries)}/{self.max_entries} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )

"""A bottom-up (System R-style) search strategy over the same rule sets.

Paper Section 2.2: "Given an appropriate search engine, Prairie can
potentially also be used with a bottom-up optimization strategy;
however, we will not discuss this approach in this paper."  This module
is that other engine: the dynamic-programming strategy of System R [17]
and R* [16], driving the *same* Volcano rule sets (generated or
hand-coded) that the top-down engine runs.

Strategy:

1. fully explore the memo (every group to trans-rule fixpoint);
2. compute the set of *interesting orders* — the classic System R
   notion: attribute orders that could matter later, i.e. the sides of
   equi-join predicates appearing anywhere in the memo, plus available
   index orders and the root requirement;
3. walk the groups bottom-up (inputs before consumers) and compute the
   best plan for the trivial requirement *and every applicable
   interesting order* of each group — eagerly, whether or not a
   consumer will ask;
4. read the root winner off the cache.

Compared to the top-down engine the *plans found are identical* (both
are exact over the same search space; asserted by the test suite); the
difference is work scheduling: bottom-up eagerly computes winners that
no consumer requests, while top-down is demand-driven.  The ablation
benchmark ``benchmarks/bench_ablation_bottom_up.py`` measures exactly
this gap — the engine-design trade-off the paper's related-work section
discusses.
"""

from __future__ import annotations

from repro.algebra.properties import DONT_CARE
from repro.catalog.predicates import equality_pairs
from repro.volcano.memo import Memo
from repro.volcano.properties import PropertyVector, dont_care_vector
from repro.volcano.search import VolcanoOptimizer, Winner, _SearchState


class BottomUpOptimizer(VolcanoOptimizer):
    """System R-style engine: full exploration + bottom-up DP.

    Drop-in replacement for :class:`VolcanoOptimizer`: only the search
    *schedule* (:meth:`_search`) differs, and the request path around
    it — validation, plan cache, statistics, trace events — is the
    top-down engine's.  ``interesting_orders=False`` restricts the eager
    pass to the trivial requirement (a pure cost-only DP, which can miss
    sort-ahead opportunities only when the final request is non-trivial;
    the root request is always computed correctly on top).
    """

    def __init__(
        self,
        ruleset,
        catalog,
        options=None,
        plan_cache=None,
        tracer=None,
        interesting_orders: bool = True,
    ) -> None:
        super().__init__(
            ruleset, catalog, options=options, plan_cache=plan_cache,
            tracer=tracer,
        )
        self.use_interesting_orders = interesting_orders

    def _search(
        self, state: _SearchState, root_gid: int, required: PropertyVector
    ) -> "Winner | None":
        memo = state.memo
        phys = self.ruleset.physical_properties

        # Phase 1: exhaustive exploration (the growing-list loop also
        # covers groups created *during* exploration).
        gid = 0
        while gid < len(memo.groups):
            self._explore(state, gid)
            gid += 1

        # Phase 2: interesting orders.
        if self.use_interesting_orders and phys:
            orders = self._interesting_orders(memo, required)
        else:
            orders = frozenset()

        # Phase 3: bottom-up dynamic programming over groups.
        trivial = dont_care_vector(phys)
        for group_id in self._bottom_up_order(memo):
            group = memo.group(group_id)
            self._optimize_group(state, group_id, trivial)
            if orders and not group.is_file_group:
                attrs = group.logical_descriptor.get("attributes") or ()
                for attr in orders:
                    if attr in attrs:
                        self._optimize_group(
                            state, group_id, self._order_vector(attr)
                        )

        # Phase 4: the actual request (a cache hit unless the root
        # requirement is not an interesting order).
        return self._optimize_group(state, root_gid, required)

    # -- helpers -------------------------------------------------------------

    def _order_vector(self, attr: str) -> PropertyVector:
        """A vector requesting ``attr`` order on the first physical
        property (``tuple_order``) and nothing else."""
        phys = self.ruleset.physical_properties
        return (attr,) + (DONT_CARE,) * (len(phys) - 1)

    def _interesting_orders(
        self, memo: Memo, required: PropertyVector
    ) -> frozenset:
        """System R's interesting orders, harvested from the memo.

        An order is interesting when some equi-join in the search space
        could exploit it, when an index delivers it, or when the final
        request demands it.
        """
        interesting: set = set()
        for group in memo.groups:
            for mexpr in group.mexprs:
                if mexpr.is_file:
                    name = mexpr.op_name
                    if name in self.catalog:
                        for index in self.catalog[name].indices:
                            interesting.add(index.attribute)
                    continue
                predicate = mexpr.descriptor.get("join_predicate")
                if predicate is None or predicate is DONT_CARE:
                    continue
                for left, right in equality_pairs(predicate):
                    interesting.add(left)
                    interesting.add(right)
        for value in required:
            if value is not DONT_CARE:
                interesting.add(value)
        return frozenset(interesting)

    def _bottom_up_order(self, memo: Memo) -> "list[int]":
        """Group ids with every input group before its consumers."""
        order: list[int] = []
        visited: set[int] = set()

        def visit(gid: int) -> None:
            if gid in visited:
                return
            visited.add(gid)
            for mexpr in memo.group(gid).mexprs:
                for child in mexpr.inputs:
                    visit(child)
            order.append(gid)

        for gid in range(len(memo.groups)):
            visit(gid)
        return order

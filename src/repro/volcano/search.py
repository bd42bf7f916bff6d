"""The Volcano search strategy: top-down, memoizing, branch-and-bound.

Given an initialized operator tree, the optimizer:

1. encodes the tree into the memo (one group per logically distinct
   subexpression),
2. *explores* groups on demand — applying every trans_rule to every memo
   expression until a fixpoint, with global duplicate elimination, so a
   group comes to contain all logically equivalent alternatives the rule
   set can derive,
3. *optimizes* the root group for the required physical-property vector:
   for every memo expression and every matching impl_rule, builds the
   algorithm's descriptor (``do_any_good``), derives the input property
   vectors (``get_input_pv``), recursively optimizes the input groups,
   computes the cost (``cost``) and delivered properties
   (``derive_phy_prop``), and keeps the cheapest satisfying plan; when
   the request is non-trivial, enforcers compete too, wrapping the best
   relaxed plan of the same group.

Winners are cached per (group, required-vector); running bests prune
alternatives whose partial cost already exceeds the best known plan
(branch-and-bound).  Optimization is exact: the returned plan is the
cheapest access plan derivable by the rule set.

This reimplements the behaviour of the Volcano optimizer generator's
search engine that the paper's experiments depend on: which rules fire,
how many equivalence classes exist (Figure 14), and the relative running
time of two rule sets executed by the same engine (Figures 10–13).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Union

from repro.algebra.descriptors import Descriptor
from repro.algebra.expressions import Expression, StoredFileRef
from repro.algebra.interning import DescriptorInterner
from repro.algebra.patterns import PatternElem, PatternVar
from repro.algebra.properties import DONT_CARE
from repro.catalog.schema import Catalog
from repro.errors import NoPlanFoundError, SearchError
from repro.prairie.actions import ActionEnv, LazyFreshDescriptors
from repro.volcano.memo import Group, Memo, MExpr
from repro.volcano.model import Enforcer, ImplRule, TransRule, VolcanoRuleSet
from repro.volcano.patterns import MatchBinding, match_mexpr
from repro.volcano.plancache import MemoSummary, PlanCache, copy_plan
from repro.volcano.properties import (
    PropertyVector,
    apply_vector,
    dont_care_vector,
    intern_vector,
    is_trivial,
    satisfies,
)

_NO_PLAN = object()  # cached "no plan exists" marker in Group.winners


def _pv_text(vector: "PropertyVector") -> tuple:
    """A property vector as trace-event data: DONT_CARE renders as "*".

    Used both when emitting events and when :func:`explain_trace`
    correlates them, so the representation must stay stable.
    """
    return tuple("*" if value is DONT_CARE else value for value in vector)


@dataclass
class OptimizerContext:
    """What rule code can reach through ``env.context``.

    Helper functions receive this as their first argument (contextual
    helpers), giving rules access to the catalog without global state.
    """

    catalog: Catalog
    ruleset: VolcanoRuleSet
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SearchOptions:
    """User heuristics over the search strategy.

    The paper's closing lesson (Section 4.3): "extending an existing
    query optimizer … can result in an enormous increase in optimization
    complexity … Extensibility, thus, must be judiciously coupled with
    user heuristics to avoid unpleasant surprises."  These are those
    heuristics — knobs that *prune* the search space, trading plan
    optimality for optimization time:

    * ``disabled_rules`` — rule names (trans, impl, or enforcer) the
      engine must not fire.  The classic use: disable the pull-up
      direction of select/MAT placement so predicates only move down.
    * ``max_groups`` — once the memo holds this many equivalence
      classes, stop applying transformation rules (existing alternatives
      are still costed; no new logical alternatives are derived).
    * ``max_mexprs`` — same budget, counted in memo expressions.
    * ``monotone_costs`` — declares that every algorithm's cost is at
      least the sum of its optimized inputs' costs.  When true, the
      engine additionally prunes alternatives whose accumulated input
      costs already exceed the running best (the classic dynamic-
      programming bound).  It is an *assumption about the cost model*,
      not a safe default: the object algebra's pointer join deliberately
      ignores its inner input's cost (it never scans the extent), and
      selective streams can have fractional cardinalities that make a
      nested-loops cost smaller than its inputs' sum — under either, the
      bound could prune the true optimum.  Off by default; the engine is
      exact without it.

    Plans remain valid and executable under any heuristic; they just may
    no longer be the global optimum.  The ablation benchmark
    ``bench_ablation_heuristics.py`` quantifies the trade.
    """

    disabled_rules: frozenset = frozenset()
    max_groups: "int | None" = None
    max_mexprs: "int | None" = None
    monotone_costs: bool = False

    def allows(self, rule_name: str) -> bool:
        return rule_name not in self.disabled_rules

    def exploration_budget_left(self, memo: "Memo") -> bool:
        if self.max_groups is not None and memo.group_count >= self.max_groups:
            return False
        if self.max_mexprs is not None and memo.mexpr_count >= self.max_mexprs:
            return False
        return True


NO_HEURISTICS = SearchOptions()


@dataclass
class SearchStats:
    """Counters the benchmarks report.

    ``trans_matched`` / ``impl_matched`` hold the *names* of rules whose
    left-hand side structurally matched some memo expression — the
    paper's Table 5 "rules matched" metric ("not all the rules were
    necessarily applicable": condition failures still count as matched).
    """

    groups: int = 0
    mexprs: int = 0
    trans_matched: set = field(default_factory=set)
    impl_matched: set = field(default_factory=set)
    trans_applicable: set = field(default_factory=set)
    impl_applicable: set = field(default_factory=set)
    trans_fired: int = 0
    trans_considered: int = 0
    impl_considered: int = 0
    impl_succeeded: int = 0
    enforcer_applied: int = 0
    optimize_calls: int = 0
    winners_cached: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    descriptors_shared: int = 0
    descriptors_unique: int = 0
    descriptor_values_shared: int = 0
    memo_descriptor_objects: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        """Every counter by name; a rule-name set reports its size under
        its ``*_rules_*`` key (``trans_matched`` → ``trans_rules_matched``)."""
        out: dict[str, Any] = {}
        for name in _STATS_FIELDS:
            value = getattr(self, name)
            if isinstance(value, set):
                out[name.replace("_", "_rules_", 1)] = len(value)
            else:
                out[name] = value
        return out

    def merge(self, other: "SearchStats") -> None:
        """Fold another optimization's counters into this one.

        Numeric counters add, matched/applicable rule-name sets union,
        and elapsed times sum — what the batch optimizer uses to
        aggregate per-worker statistics into one batch-level view.
        ``groups``/``mexprs`` add too (total memo work across the
        batch), matching how a throughput report reads them.
        """
        for name in _STATS_FIELDS:
            value = getattr(self, name)
            if isinstance(value, set):
                value |= getattr(other, name)
            else:
                setattr(self, name, value + getattr(other, name))


_STATS_FIELDS = tuple(f.name for f in fields(SearchStats))


@dataclass(slots=True)
class Winner:
    """The best plan found for one (group, required-vector) request.

    The trailing fields are trace annotations: which rule produced the
    plan root and which (group, required-vector) requests its inputs
    were answered from.  They are filled **only when a tracer is
    attached** (the ``winner_filed`` event and ``explain_trace`` read
    them); a tracerless search leaves them at their defaults.
    """

    plan: Union[Expression, StoredFileRef]
    cost: float
    delivered: PropertyVector
    rule_name: str = ""
    provenance: str = ""
    algorithm: str = ""
    input_requests: tuple = ()


@dataclass
class OptimizationResult:
    """Everything :meth:`VolcanoOptimizer.optimize` returns."""

    plan: Union[Expression, StoredFileRef]
    cost: float
    stats: SearchStats
    #: The search's memo, or on a plan-cache hit the entry's summary.
    memo: "Memo | MemoSummary"

    @property
    def equivalence_classes(self) -> int:
        """The Figure 14 metric."""
        return self.memo.group_count


class VolcanoOptimizer:
    """One optimization engine bound to a rule set and a catalog.

    The optimizer is reusable: each :meth:`optimize` call builds a fresh
    memo and statistics, so one engine can serve many queries.  Passing a
    :class:`~repro.volcano.plancache.PlanCache` makes that reuse pay:
    repeated (or structurally identical) queries are answered from the
    cache without any search; see :mod:`repro.volcano.plancache` for the
    keying and invalidation rules.
    """

    def __init__(
        self,
        ruleset: VolcanoRuleSet,
        catalog: Catalog,
        options: "SearchOptions | None" = None,
        plan_cache: "PlanCache | None" = None,
        tracer=None,
    ) -> None:
        ruleset.validate()
        self.ruleset = ruleset
        self.catalog = catalog
        self.options = options if options is not None else NO_HEURISTICS
        self.plan_cache = plan_cache
        # Structured tracing (repro.obs): None or a NullTracer keeps the
        # search on its unobserved hot path; anything with enabled=True
        # receives the event stream documented in docs/observability.md.
        self.tracer = tracer
        self.context = OptimizerContext(catalog=catalog, ruleset=ruleset)
        # Identity of a default-valued descriptor: most RHS descriptors
        # are never touched by the rule's actions, so their memo identity
        # is this schema-wide constant (see _build_rhs).
        self._default_arg_projection = Descriptor(ruleset.schema).project(
            ruleset.argument_properties
        )
        # Hash-consing table for m-expr descriptors, shared across this
        # engine's optimize() calls so repeated queries re-use the same
        # canonical objects (repro.algebra.interning).
        self._descriptor_interner = DescriptorInterner(ruleset.schema)

    # -- public API ------------------------------------------------------------

    def optimize(
        self,
        tree: Union[Expression, StoredFileRef],
        required: "PropertyVector | None" = None,
    ) -> OptimizationResult:
        """Optimize an initialized operator tree into the cheapest plan.

        ``required`` constrains the physical properties the final plan
        must deliver (aligned with the rule set's
        ``physical_properties``); defaults to no requirement.
        """
        started = time.perf_counter()
        phys = self.ruleset.physical_properties
        if required is None:
            required = dont_care_vector(phys)
        if len(required) != len(phys):
            raise SearchError(
                f"required vector has {len(required)} entries, rule set has "
                f"{len(phys)} physical properties"
            )
        required = intern_vector(required)
        emit = self._emit_hook()
        if emit is not None:
            # Interned leaves (repro.algebra.interning) have a name but
            # no op, like StoredFileRef.
            root_op = tree.op.name if hasattr(tree, "op") else tree.name
            emit(
                "optimize_begin",
                engine=type(self).__name__,
                ruleset=self.ruleset.name,
                root_op=root_op,
                required=_pv_text(required),
            )
        cache = self.plan_cache
        if cache is not None:
            cache_key = PlanCache.key_for(
                self.ruleset, self.options, tree, required
            )
            entry = cache.lookup(cache_key, self.catalog, emit)
            if entry is not None:
                stats = SearchStats()
                stats.plan_cache_hits = 1
                stats.groups = entry.memo.group_count
                stats.mexprs = entry.memo.mexpr_count
                stats.elapsed_seconds = time.perf_counter() - started
                if emit is not None:
                    emit(
                        "optimize_end",
                        required=_pv_text(required),
                        cost=entry.cost,
                        groups=stats.groups,
                        mexprs=stats.mexprs,
                        elapsed_s=stats.elapsed_seconds,
                        from_cache=True,
                    )
                return OptimizationResult(
                    copy_plan(entry.plan), entry.cost, stats, entry.memo
                )
        interner = self._descriptor_interner
        memo = Memo(
            self.ruleset.argument_properties, descriptor_interner=interner
        )
        values_shared_before = interner.values_shared
        stats = SearchStats()
        if cache is not None:
            stats.plan_cache_misses = 1
        state = _SearchState(memo, stats, emit)
        memo._emit = emit
        root = memo.from_expression(tree)
        winner = self._search(state, root.gid, required)
        stats.groups = memo.group_count
        stats.mexprs = memo.mexpr_count
        stats.descriptors_shared = memo.descriptors_shared
        stats.descriptors_unique = memo.descriptors_unique
        stats.descriptor_values_shared = (
            interner.values_shared - values_shared_before
        )
        stats.memo_descriptor_objects = memo.retained_descriptor_objects()
        stats.elapsed_seconds = time.perf_counter() - started
        if winner is None:
            if emit is not None:
                emit(
                    "optimize_failed",
                    root_gid=root.gid,
                    required=_pv_text(required),
                )
            raise NoPlanFoundError(
                f"no access plan delivers the requested properties for "
                f"{tree}"
            )
        if cache is not None:
            cache.store(
                cache_key, winner.plan, winner.cost, memo, self.catalog, emit
            )
        if emit is not None:
            emit(
                "optimize_end",
                root_gid=root.gid,
                required=_pv_text(required),
                cost=winner.cost,
                groups=stats.groups,
                mexprs=stats.mexprs,
                elapsed_s=stats.elapsed_seconds,
                from_cache=False,
            )
        return OptimizationResult(winner.plan, winner.cost, stats, memo)

    def _search(
        self, state: "_SearchState", root_gid: int, required: PropertyVector
    ) -> "Winner | None":
        """The search schedule: the root request's winner, or None.

        Top-down answers the root request on demand; an engine with
        another schedule (:mod:`repro.volcano.bottomup`) overrides this
        hook and inherits the rest of the request path — validation,
        plan cache, statistics and trace events.
        """
        return self._optimize_group(state, root_gid, required)

    # -- tracing plumbing --------------------------------------------------------

    def _emit_hook(self):
        """``tracer.emit`` when tracing is live, else None.

        Resolved once per optimize() call; every hot-path emit site
        checks the resolved hook against None, which is the entire
        tracing-off cost.
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return tracer.emit
        return None

    # -- exploration (trans_rules to fixpoint) ----------------------------------

    def _explore(self, state: "_SearchState", gid: int) -> list[MExpr]:
        memo = state.memo
        group = memo.group(gid)
        if group.explored or group.is_file_group:
            return group.mexprs
        if gid in state.exploring:
            # Re-entrant request during this group's own exploration:
            # return the current snapshot; the outer call finishes the job.
            return group.mexprs
        state.exploring.add(gid)
        try:
            self._explore_group(state, group, gid)
            group.explored = True
            if state.emit is not None:
                state.emit("group_explored", gid=gid, mexprs=len(group.mexprs))
        finally:
            state.exploring.discard(gid)
        return group.mexprs

    def _explore_group(
        self, state: "_SearchState", group: Group, gid: int
    ) -> None:
        """Apply trans_rules to the group's m-exprs until a fixpoint.

        Only rules whose LHS root matches an m-expr's operator are
        attempted (via the rule set's operator index), and fired
        bookkeeping is a bitmask over dense rule ids on the m-expr
        itself — no per-attempt tuple allocation or global set."""
        memo = state.memo
        options = self.options
        mexprs = group.mexprs  # mutated in place by _build_rhs inserts
        trans_entries_for = self.ruleset.trans_entries_for
        unrestricted = not options.disabled_rules
        index = 0
        while index < len(mexprs):
            if not options.exploration_budget_left(memo):
                # Heuristic cut-off: keep what we have, derive no
                # more logical alternatives (SearchOptions).
                break
            mexpr = mexprs[index]
            for dense_id, rule in trans_entries_for(mexpr.op_name):
                bit = 1 << dense_id
                if mexpr.fired_mask & bit:
                    continue
                if not (unrestricted or options.allows(rule.name)):
                    continue
                mexpr.fired_mask |= bit
                self._apply_trans_rule(state, rule, mexpr, gid)
            index += 1

    def _apply_trans_rule(
        self, state: "_SearchState", rule: TransRule, mexpr: MExpr, gid: int
    ) -> None:
        memo = state.memo

        # Nested pattern nodes enumerate only the input group's members
        # with the right root operator (the group's by_op index), instead
        # of scanning every member.
        def expand_op(child_gid: int, op_name: str):
            self._explore(state, child_gid)
            return memo.group(child_gid).by_op.get(op_name, ())

        appl_code = rule.appl_code
        emit = state.emit
        if emit is not None:
            emit("trans_attempt", rule=rule.name, gid=gid)
        matched = False
        for binding in match_mexpr(rule.lhs, mexpr, memo, expand_op):
            matched = True
            state.stats.trans_considered += 1
            env = self._trans_env(rule, binding)
            if not rule.cond_code(env):
                if emit is not None:
                    emit("trans_rejected", rule=rule.name, gid=gid)
                continue
            state.stats.trans_applicable.add(rule.name)
            appl_code(env)
            state.stats.trans_fired += 1
            if emit is not None:
                emit(
                    "trans_fired",
                    rule=rule.name,
                    provenance=rule.provenance_id,
                    gid=gid,
                )
            self._build_rhs(state, rule.rhs, binding, env, target_group=gid)
        if matched:
            state.stats.trans_matched.add(rule.name)

    def _trans_env(self, rule: TransRule, binding: MatchBinding) -> ActionEnv:
        # Fresh RHS descriptors materialize on first access — most
        # bindings fail the rule's condition without ever touching them.
        # The binding is single-use, so its descriptor dict seeds the
        # namespace directly.
        bound = binding.descriptors
        return ActionEnv(
            LazyFreshDescriptors(
                bound, rule.fresh_rhs_names, self.ruleset.schema
            ),
            self.ruleset.helpers,
            context=self.context,
            readonly=bound.keys(),
        )

    def _build_rhs(
        self,
        state: "_SearchState",
        elem: PatternElem,
        binding: MatchBinding,
        env: ActionEnv,
        target_group: "int | None",
    ) -> int:
        """Materialize a rule's RHS into the memo; returns its group id.

        The RHS root joins ``target_group`` (it is logically equivalent to
        the matched expression); nested nodes get their own groups unless
        duplicate elimination finds them already known.
        """
        if isinstance(elem, PatternVar):
            return binding.groups[elem.var]
        child_gids = tuple(
            [
                self._build_rhs(state, child, binding, env, target_group=None)
                for child in elem.inputs
            ]
        )
        memo = state.memo
        # allow_cross_group: the fired rule proves the RHS logically
        # equivalent to the target group, so a duplicate found in another
        # group means the two groups are equivalent; keeping the original
        # home is this memo's documented behaviour.
        #
        # Most RHS nodes are re-derivations of known m-exprs, so probe the
        # duplicate-elimination index *before* paying for descriptor
        # materialization, copy and m-expr allocation.  A fresh RHS
        # descriptor the rule's actions never wrote stays lazily absent
        # (``dict.get`` skips ``__missing__``) and its argument projection
        # is the schema-default constant.
        descriptors = env.descriptors
        descriptor = descriptors.get(elem.descriptor)
        if descriptor is None:
            if elem.descriptor not in descriptors._fresh:
                env.descriptor(elem.descriptor)  # canonical ActionError
            projection = self._default_arg_projection
        else:
            projection = descriptor.project(memo.argument_properties)
        key = (elem.op_name, child_gids, projection)
        canonical = memo._index.get(key)  # inlined Memo.probe
        created = False
        if canonical is None:
            if descriptor is None:
                # Unshared and default-valued: safe to hand straight to
                # the m-expr, no copy.
                descriptor = Descriptor(self.ruleset.schema)
            else:
                descriptor = descriptor.copy()
            canonical, created = memo.insert(
                MExpr(elem.op_name, child_gids, descriptor),
                group_id=target_group,
                allow_cross_group=True,
                key=key,
            )
        if created and target_group is None:
            # A brand-new group must be closed under the trans_rules right
            # away: every logically equivalent variant (e.g. the commuted
            # join) must live in *this* group before any other rule can
            # derive the variant independently and accidentally seed a
            # second, split group for the same equivalence class.
            self._explore(state, canonical.group_id)
        return canonical.group_id

    # -- optimization (impl_rules + enforcers, memoized winners) -----------------

    def _optimize_group(
        self, state: "_SearchState", gid: int, required: PropertyVector
    ) -> "Winner | None":
        memo = state.memo
        group = memo.group(gid)
        cached = group.winners.get(required, _NO_WINNER)
        if cached is not _NO_WINNER:
            return None if cached is _NO_PLAN else cached
        request = (gid, required)
        if request in state.optimizing:
            return None  # break pathological cycles; not cached
        state.optimizing.add(request)
        state.stats.optimize_calls += 1
        emit = state.emit
        if emit is not None:
            required_text = _pv_text(required)
            emit("optimize_group_begin", gid=gid, required=required_text)
            group_started = time.perf_counter()
        try:
            best: "Winner | None" = None
            if group.is_file_group:
                best = self._file_winner(group, required)
                if emit is not None and best is not None:
                    best.rule_name = "<stored-file>"
                    best.algorithm = group.mexprs[0].op_name
                    best.provenance = f"file:{group.mexprs[0].op_name}"
            else:
                self._explore(state, gid)
                for mexpr in list(group.mexprs):
                    for rule in self.ruleset.impl_rules_for(mexpr.op_name):
                        if not self.options.allows(rule.name):
                            continue
                        state.stats.impl_matched.add(rule.name)
                        candidate = self._apply_impl_rule(
                            state, rule, mexpr, required, best
                        )
                        if candidate is not None and (
                            best is None or candidate.cost < best.cost
                        ):
                            best = candidate
            if not is_trivial(required):
                for enforcer in self.ruleset.enforcers:
                    if not self.options.allows(enforcer.name):
                        continue
                    candidate = self._apply_enforcer(
                        state, enforcer, group, required, best
                    )
                    if candidate is not None and (
                        best is None or candidate.cost < best.cost
                    ):
                        best = candidate
            group.winners[required] = _NO_PLAN if best is None else best
            state.stats.winners_cached += 1
            if emit is not None:
                if best is None:
                    emit("winner_none", gid=gid, required=required_text)
                else:
                    emit(
                        "winner_filed",
                        gid=gid,
                        required=required_text,
                        rule=best.rule_name,
                        provenance=best.provenance,
                        algorithm=best.algorithm,
                        cost=best.cost,
                        inputs=best.input_requests,
                    )
                emit(
                    "optimize_group_end",
                    gid=gid,
                    required=required_text,
                    elapsed_s=time.perf_counter() - group_started,
                )
            return best
        finally:
            state.optimizing.discard(request)

    def _file_winner(
        self, group: Group, required: PropertyVector
    ) -> "Winner | None":
        """Stored files cost nothing and deliver no physical properties."""
        mexpr = group.mexprs[0]
        delivered = dont_care_vector(self.ruleset.physical_properties)
        if not satisfies(delivered, required):
            return None
        leaf = StoredFileRef(mexpr.op_name, mexpr.descriptor.copy())
        return Winner(plan=leaf, cost=0.0, delivered=delivered)

    def _impl_env(
        self,
        rule: "ImplRule | Enforcer",
        op_descriptor: Descriptor,
        input_groups: tuple[int, ...],
        memo: Memo,
    ) -> ActionEnv:
        descriptors: dict[str, Descriptor] = {rule.op_desc_name: op_descriptor}
        readonly = {rule.op_desc_name}
        for index, child_gid in enumerate(input_groups):
            lhs_name = rule.lhs_input_desc(index)
            if lhs_name is not None:
                descriptors[lhs_name] = memo.group(
                    child_gid
                ).logical_descriptor.copy()
                readonly.add(lhs_name)
        for name in rule.rhs_descriptor_names:
            descriptors[name] = Descriptor(self.ruleset.schema)
        return ActionEnv(
            descriptors,
            self.ruleset.helpers,
            context=self.context,
            readonly=readonly,
        )

    def _record_input_result(
        self,
        rule: "ImplRule | Enforcer",
        env: ActionEnv,
        index: int,
        winner: Winner,
    ) -> None:
        """Make an optimized input's cost visible to post-opt code.

        The paper's post-opt statements read input costs off the input
        descriptors (``D5.cost = D4.cost + D4.num_records * D2.cost`` in
        I-rule (5) reads both the fresh RHS descriptor D4 *and* the LHS
        input descriptor D2) — so the engine writes the winner's cost
        into both bindings.  These are env-local copies; nothing shared
        is mutated.
        """
        cost_prop = self.ruleset.cost_property
        for name in (rule.lhs_input_desc(index), rule.rhs_input_desc(index)):
            if name is not None:
                descriptor = env.descriptors[name]
                descriptor[cost_prop] = winner.cost
                for prop, value in zip(
                    self.ruleset.physical_properties, winner.delivered
                ):
                    descriptor[prop] = value

    def _apply_impl_rule(
        self,
        state: "_SearchState",
        rule: ImplRule,
        mexpr: MExpr,
        required: PropertyVector,
        best_so_far: "Winner | None",
    ) -> "Winner | None":
        phys = self.ruleset.physical_properties
        op_descriptor = mexpr.descriptor.copy()
        apply_vector(op_descriptor, phys, required)
        env = self._impl_env(rule, op_descriptor, mexpr.inputs, state.memo)
        state.stats.impl_considered += 1
        emit = state.emit
        gid = mexpr.group_id
        if emit is not None:
            emit("impl_attempt", rule=rule.name, gid=gid, op=mexpr.op_name)
        if not rule.cond_code(env):
            if emit is not None:
                emit(
                    "impl_rejected", rule=rule.name, gid=gid, reason="condition"
                )
            return None
        state.stats.impl_applicable.add(rule.name)
        if not rule.do_any_good(env):
            if emit is not None:
                emit(
                    "impl_rejected", rule=rule.name, gid=gid, reason="no_good"
                )
            return None
        child_plans: list[Winner] = []
        input_requests: "list[tuple] | None" = [] if emit is not None else None
        accumulated = 0.0
        prune_on_inputs = self.options.monotone_costs and best_so_far is not None
        for index, child_gid in enumerate(mexpr.inputs):
            input_pv = intern_vector(rule.get_input_pv(env, index))
            sub = self._optimize_group(state, child_gid, input_pv)
            if sub is None:
                if emit is not None:
                    emit(
                        "impl_rejected",
                        rule=rule.name,
                        gid=gid,
                        reason="no_input_plan",
                    )
                return None
            accumulated += sub.cost
            if prune_on_inputs and accumulated >= best_so_far.cost:
                # Classic DP bound — only sound when the cost model is
                # declared monotone (see SearchOptions.monotone_costs).
                if emit is not None:
                    emit(
                        "prune",
                        rule=rule.name,
                        gid=gid,
                        kind="inputs",
                        accumulated=accumulated,
                        bound=best_so_far.cost,
                    )
                return None
            self._record_input_result(rule, env, index, sub)
            child_plans.append(sub)
            if input_requests is not None:
                input_requests.append((child_gid, _pv_text(input_pv)))
        cost = rule.cost(env)
        delivered = rule.derive_phy_prop(env)
        if not satisfies(delivered, required):
            if emit is not None:
                emit(
                    "impl_rejected",
                    rule=rule.name,
                    gid=gid,
                    reason="properties",
                )
            return None
        if best_so_far is not None and cost >= best_so_far.cost:
            # Branch-and-bound: costed, but the running best already wins.
            if emit is not None:
                emit(
                    "prune",
                    rule=rule.name,
                    gid=gid,
                    kind="cost",
                    cost=cost,
                    bound=best_so_far.cost,
                )
            return None
        state.stats.impl_succeeded += 1
        plan = Expression(
            rule.algorithm,
            tuple(p.plan for p in child_plans),
            env.descriptor(rule.alg_desc_name).copy(),
        )
        winner = Winner(plan=plan, cost=cost, delivered=delivered)
        if emit is not None:
            winner.rule_name = rule.name
            winner.provenance = rule.provenance_id
            winner.algorithm = rule.algorithm.name
            winner.input_requests = tuple(input_requests)
            emit(
                "impl_costed",
                rule=rule.name,
                provenance=rule.provenance_id,
                gid=gid,
                algorithm=rule.algorithm.name,
                cost=cost,
            )
        return winner

    def _apply_enforcer(
        self,
        state: "_SearchState",
        enforcer: Enforcer,
        group: Group,
        required: PropertyVector,
        best_so_far: "Winner | None",
    ) -> "Winner | None":
        phys = self.ruleset.physical_properties
        op_descriptor = group.logical_descriptor.copy()
        apply_vector(op_descriptor, phys, required)
        env = self._impl_env(enforcer, op_descriptor, (group.gid,), state.memo)
        emit = state.emit
        gid = group.gid
        if not enforcer.cond_code(env):
            if emit is not None:
                emit(
                    "enforcer_rejected",
                    rule=enforcer.name,
                    gid=gid,
                    reason="condition",
                )
            return None
        if not enforcer.do_any_good(env):
            if emit is not None:
                emit(
                    "enforcer_rejected",
                    rule=enforcer.name,
                    gid=gid,
                    reason="no_good",
                )
            return None
        input_pv = intern_vector(enforcer.get_input_pv(env, 0))
        if input_pv == required:
            return None  # no relaxation: applying would recurse forever
        sub = self._optimize_group(state, group.gid, input_pv)
        if sub is None:
            return None
        if (
            self.options.monotone_costs
            and best_so_far is not None
            and sub.cost >= best_so_far.cost
        ):
            if emit is not None:
                emit(
                    "prune",
                    rule=enforcer.name,
                    gid=gid,
                    kind="inputs",
                    accumulated=sub.cost,
                    bound=best_so_far.cost,
                )
            return None
        self._record_input_result(enforcer, env, 0, sub)
        cost = enforcer.cost(env)
        delivered = enforcer.derive_phy_prop(env)
        if not satisfies(delivered, required):
            if emit is not None:
                emit(
                    "enforcer_rejected",
                    rule=enforcer.name,
                    gid=gid,
                    reason="properties",
                )
            return None
        if best_so_far is not None and cost >= best_so_far.cost:
            if emit is not None:
                emit(
                    "prune",
                    rule=enforcer.name,
                    gid=gid,
                    kind="cost",
                    cost=cost,
                    bound=best_so_far.cost,
                )
            return None
        state.stats.enforcer_applied += 1
        plan = Expression(
            enforcer.algorithm,
            (sub.plan,),
            env.descriptor(enforcer.alg_desc_name).copy(),
        )
        winner = Winner(plan=plan, cost=cost, delivered=delivered)
        if emit is not None:
            winner.rule_name = enforcer.name
            winner.provenance = enforcer.provenance_id
            winner.algorithm = enforcer.algorithm.name
            winner.input_requests = ((gid, _pv_text(input_pv)),)
            emit(
                "enforcer_applied",
                rule=enforcer.name,
                provenance=enforcer.provenance_id,
                gid=gid,
                algorithm=enforcer.algorithm.name,
                cost=cost,
            )
        return winner


class _SearchState:
    """Per-optimization mutable state (memo, stats, re-entrancy guards).

    ``emit`` is the resolved trace hook — ``tracer.emit`` when tracing
    is live, else None; every emit site in the engine guards on it.
    """

    __slots__ = ("memo", "stats", "exploring", "optimizing", "emit")

    def __init__(self, memo: Memo, stats: SearchStats, emit=None) -> None:
        self.memo = memo
        self.stats = stats
        self.exploring: set[int] = set()
        self.optimizing: set[tuple] = set()
        self.emit = emit


_NO_WINNER = object()  # "cache miss" marker distinct from cached _NO_PLAN

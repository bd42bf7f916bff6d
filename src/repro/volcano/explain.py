"""EXPLAIN-style rendering of optimization results.

Downstream users of an optimizer live in its EXPLAIN output; this
module renders an :class:`~repro.volcano.search.OptimizationResult` the
way database shells do — one line per plan node with the estimated
rows, per-node cost, and the operator arguments that matter (predicates,
orders, attributes chased) — plus an optional search summary and a memo
dump for the curious.
"""

from __future__ import annotations

from repro.algebra.expressions import Expression, StoredFileRef
from repro.algebra.properties import DONT_CARE
from repro.volcano.plancache import MemoSummary
from repro.volcano.search import OptimizationResult

_DETAIL_PROPS = (
    ("selection_predicate", "filter"),
    ("join_predicate", "join on"),
    ("mat_attribute", "materialize"),
    ("unnest_attribute", "unnest"),
    ("projected_attributes", "project"),
    ("tuple_order", "order"),
)


def _node_details(node: Expression) -> str:
    parts = []
    descriptor = node.descriptor
    for prop, label in _DETAIL_PROPS:
        value = descriptor.get(prop, DONT_CARE)
        if value is DONT_CARE or value is None:
            continue
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        parts.append(f"{label}: {value}")
    return "; ".join(parts)


def explain_plan(plan: "Expression | StoredFileRef") -> str:
    """A multi-line EXPLAIN rendering of one access plan."""
    lines: list[str] = []

    def emit(node, depth: int) -> None:
        indent = "  " * depth
        if isinstance(node, StoredFileRef):
            lines.append(f"{indent}-> {node.name} (stored file)")
            return
        descriptor = node.descriptor
        rows = descriptor.get("num_records", DONT_CARE)
        cost = descriptor.get("cost", DONT_CARE)
        rows_text = f"rows≈{rows:.0f}" if rows is not DONT_CARE else "rows=?"
        cost_text = f"cost={cost:.2f}" if cost is not DONT_CARE else "cost=?"
        details = _node_details(node)
        suffix = f"  [{details}]" if details else ""
        lines.append(f"{indent}-> {node.op.name}  ({rows_text}, {cost_text}){suffix}")
        for child in node.inputs:
            emit(child, depth + 1)

    emit(plan, 0)
    return "\n".join(lines)


def explain(result: OptimizationResult, verbose: bool = False) -> str:
    """EXPLAIN for a full optimization result.

    ``verbose`` appends the search statistics and, beyond that, the memo
    contents (every equivalence class with its alternatives) — the
    paper's Figure 14 raw material.
    """
    sections = [explain_plan(result.plan)]
    sections.append(
        f"\ntotal estimated cost: {result.cost:.2f}"
    )
    if verbose:
        stats = result.stats.as_dict()
        stat_lines = [
            "search statistics:",
            f"  equivalence classes : {stats['groups']}",
            f"  memo expressions    : {stats['mexprs']}",
            f"  trans rules matched : {stats['trans_rules_matched']}"
            f" (applicable {stats['trans_rules_applicable']})",
            f"  impl rules matched  : {stats['impl_rules_matched']}"
            f" (applicable {stats['impl_rules_applicable']})",
            f"  rule firings        : {stats['trans_fired']}",
            f"  plans costed        : {stats['impl_succeeded']}",
            f"  enforcers applied   : {stats['enforcer_applied']}",
            f"  elapsed             : {stats['elapsed_seconds'] * 1000:.2f} ms",
        ]
        sections.append("\n" + "\n".join(stat_lines))
    return "\n".join(sections)


def explain_memo(result: OptimizationResult, limit: "int | None" = 40) -> str:
    """Dump the memo's equivalence classes (truncated to ``limit``).

    A plan-cache hit carries only a :class:`MemoSummary`; that prints as
    one line with the memo's counts.
    """
    memo = result.memo
    if isinstance(memo, MemoSummary):
        return (
            f"memo not retained (plan-cache hit): {memo.group_count} "
            f"equivalence classes, {memo.mexpr_count} m-exprs"
        )
    lines = []
    groups = memo.groups if limit is None else memo.groups[:limit]
    for group in groups:
        members = "; ".join(str(m) for m in group.mexprs)
        lines.append(f"g{group.gid} ({len(group.mexprs)} alt): {members}")
    hidden = memo.group_count - len(groups)
    if hidden > 0:
        lines.append(f"... ({hidden} more equivalence classes)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE over a trace
# ---------------------------------------------------------------------------


def _event_rows(events) -> "list[tuple[str, float, dict]]":
    """Normalize trace events (TraceEvent objects or exported flat dicts)."""
    rows = []
    for event in events:
        if isinstance(event, dict):
            data = {k: v for k, v in event.items() if k not in ("type", "ts")}
            rows.append((event["type"], event.get("ts", 0.0), data))
        else:
            rows.append((event.type, event.ts, event.data))
    return rows


def _req_key(value) -> tuple:
    """A hashable requirement key (JSON round-trips tuples as lists)."""
    if value is None:
        return ()
    return tuple(value)


def explain_trace(result: "OptimizationResult | None", events) -> str:
    """EXPLAIN ANALYZE: the winning plan's derivation, read off a trace.

    ``events`` is the event stream of one optimization — a
    :class:`~repro.obs.CollectingTracer`'s events or dicts read back from
    a JSON-lines export.  The rendering walks the ``winner_filed`` events
    from the root request downward, annotating each (group, requirement)
    with the implementation chosen, its Prairie/Volcano provenance, the
    per-group inclusive optimization time, and the transformation rules
    that fired on the group while the search ran.

    ``result`` supplies the total-cost header; pass ``None`` when
    rendering from an exported trace alone.
    """
    rows = _event_rows(events)

    winners: dict = {}
    timings: dict = {}
    fired: dict = {}
    phases: dict = {}
    end = None
    for etype, _ts, data in rows:
        if etype == "winner_filed":
            winners[(data["gid"], _req_key(data.get("required")))] = data
        elif etype == "optimize_group_end":
            key = (data["gid"], _req_key(data.get("required")))
            # the first completion carries the real search work; later
            # requests for the same (group, requirement) are cache reads
            timings.setdefault(key, data.get("elapsed_s", 0.0))
        elif etype == "trans_fired":
            fired.setdefault(data["gid"], []).append(data["rule"])
        elif etype == "span_end":
            name = data.get("name", "?")
            total, count = phases.get(name, (0.0, 0))
            phases[name] = (total + data.get("elapsed_s", 0.0), count + 1)
        elif etype == "optimize_end":
            end = data

    lines: list[str] = []
    if end is None:
        return "no optimize_end event in trace (incomplete or empty trace)"
    if end.get("from_cache"):
        lines.append(
            f"plan served from plan cache (cost={end.get('cost', 0.0):.2f}); "
            "no search was run — re-optimize with an empty cache for a "
            "derivation trace"
        )
        return "\n".join(lines)

    cost = result.cost if result is not None else end.get("cost", 0.0)
    elapsed_ms = end.get("elapsed_s", 0.0) * 1000
    lines.append(
        f"EXPLAIN ANALYZE  (cost={cost:.2f}, total={elapsed_ms:.2f} ms, "
        f"{end.get('groups', '?')} groups, {end.get('mexprs', '?')} m-exprs)"
    )

    seen: set = set()

    def render(gid: int, required: tuple, depth: int) -> None:
        indent = "  " * depth
        req_text = "(" + ", ".join(str(v) for v in required) + ")"
        key = (gid, required)
        winner = winners.get(key)
        if winner is None:
            lines.append(f"{indent}-> g{gid} {req_text}: no winner recorded")
            return
        if key in seen:
            lines.append(
                f"{indent}-> g{gid} {req_text}: (shared, shown above)"
            )
            return
        seen.add(key)
        ms = timings.get(key, 0.0) * 1000
        lines.append(
            f"{indent}-> g{gid} {req_text}: {winner.get('algorithm', '?')}"
            f"  via {winner.get('rule', '?')} [{winner.get('provenance', '?')}]"
            f"  (cost={winner.get('cost', 0.0):.2f}, time={ms:.3f} ms)"
        )
        rules = fired.get(gid)
        if rules:
            chain = ", ".join(dict.fromkeys(rules))
            lines.append(f"{indent}   transformations: {chain}")
        for child in winner.get("inputs", ()):
            child_gid, child_req = child[0], _req_key(child[1])
            render(child_gid, child_req, depth + 1)

    root_gid = end.get("root_gid")
    if root_gid is None:
        lines.append("no root group recorded")
    else:
        render(root_gid, _req_key(end.get("required")), 0)
    if phases:
        lines.append("phases:")
        for name in sorted(phases, key=lambda n: -phases[n][0]):
            total, count = phases[name]
            times = "time" if count == 1 else "times"
            lines.append(
                f"  {name:<24} {total * 1000:9.3f} ms  ({count} {times})"
            )
    return "\n".join(lines)

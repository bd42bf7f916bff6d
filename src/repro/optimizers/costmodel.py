"""Cost formulas shared by both optimizers' rule sets.

The paper's experiments do not depend on a particular cost model (they
measure optimization time, not plan quality), but its example rules carry
classic textbook formulas — nested loops at ``outer_cost +
outer_records × inner_cost`` (Figure 6), merge sort at ``input_cost +
n·log n`` (Figure 5) — so the rule sets here use the same shapes, plus
simple page-based scan costs driven by the catalog.

All cardinality/size estimates are rounded to :data:`SIGNIFICANT_DIGITS`
significant digits.  This matters for correctness, not cosmetics:
``num_records`` participates in memo-expression identity (cost sections
read it, so the P2V classification keeps it an operator argument rather
than a derived stream property), and rounding guarantees that two
derivations of the same logical expression — whose floating-point
products may differ in the last few ulps depending on rule order — still
deduplicate to one memo expression.  ``tuple_size`` is derived and no
longer in the identity, but is rounded the same way.
"""

from __future__ import annotations

from repro.catalog.schema import StoredFileInfo

PAGE_SIZE = 8192          # bytes per page
CPU_TUPLE_COST = 0.01     # cost of touching one tuple in memory
INDEX_PROBE_COST = 1.0    # fixed cost of descending an index
INDEX_FETCH_COST = 0.5    # cost of fetching one qualifying row via the index
POINTER_CHASE_COST = 1.0  # one random page fetch per reference chased
SIGNIFICANT_DIGITS = 6


# ``round_estimate`` goes through string formatting, which is the single
# most expensive arithmetic primitive on the search hot path; estimates
# repeat heavily (the same subplan sizes recur across derivations), so a
# memo pays off.  Repeats are local to one query's search while every new
# query brings new values, so a full memo is cleared and refilled rather
# than frozen: its size stays bounded however long the process serves.
_ROUND_MEMO: dict = {}
_ROUND_MEMO_LIMIT = 1 << 12


def round_estimate(value: float) -> float:
    """Round an estimate to a canonical representation (see module doc)."""
    if value == 0:
        return 0.0
    hit = _ROUND_MEMO.get(value)
    if hit is not None:
        return hit
    rounded = float(f"{float(value):.{SIGNIFICANT_DIGITS}g}")
    if len(_ROUND_MEMO) >= _ROUND_MEMO_LIMIT:
        _ROUND_MEMO.clear()
    _ROUND_MEMO[value] = rounded
    return rounded


def pages(num_records: float, tuple_size: float) -> float:
    """Number of pages a stream of the given volume occupies."""
    return max(1.0, (num_records * tuple_size) / PAGE_SIZE)


def file_scan_cost(info: StoredFileInfo) -> float:
    """Full sequential scan: one unit per page of the stored file."""
    return round_estimate(pages(info.cardinality, info.tuple_size))


def index_scan_cost(info: StoredFileInfo, matching_records: float) -> float:
    """Index probe plus one fetch per matching record."""
    return round_estimate(INDEX_PROBE_COST + INDEX_FETCH_COST * matching_records)


def filter_cost(input_cost: float, input_records: float) -> float:
    """Streaming selection: input cost plus CPU per input tuple."""
    return round_estimate(input_cost + CPU_TUPLE_COST * input_records)


def nested_loops_cost(
    outer_cost: float, outer_records: float, inner_cost: float
) -> float:
    """Figure 6's formula: the inner stream is re-produced per outer tuple."""
    return round_estimate(outer_cost + outer_records * inner_cost)


def merge_join_cost(
    outer_cost: float,
    inner_cost: float,
    outer_records: float,
    inner_records: float,
) -> float:
    """Single interleaved pass over two sorted inputs."""
    return round_estimate(
        outer_cost + inner_cost + CPU_TUPLE_COST * (outer_records + inner_records)
    )


def hash_join_cost(
    outer_cost: float,
    inner_cost: float,
    outer_records: float,
    inner_records: float,
) -> float:
    """Build on the inner input, probe with the outer."""
    return round_estimate(
        outer_cost
        + inner_cost
        + CPU_TUPLE_COST * (2.0 * inner_records + outer_records)
    )


def pointer_join_cost(
    outer_cost: float, outer_records: float
) -> float:
    """One pointer dereference (random fetch) per outer tuple.

    Used for the object algebra's pointer join and MAT implementations:
    the referenced object is fetched directly, so the inner input is
    never scanned.
    """
    return round_estimate(outer_cost + POINTER_CHASE_COST * outer_records)

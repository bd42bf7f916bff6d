"""Statistics helpers: rule-checked percentiles and peak memory."""

from __future__ import annotations

import math
import resource

#: A percentile is reported only when at least this many samples lie
#: beyond it, so that it rests on more than a handful of outliers.
MIN_BEYOND = 10


def min_samples(q: float) -> int:
    """The fewest samples for which :func:`percentile` reports ``q``."""
    n = MIN_BEYOND
    while percentile_rank(n, q) is None:
        n += 1
    return n


def percentile_rank(n: int, q: float) -> "int | None":
    """The 1-based nearest rank of the ``q``-th percentile of ``n``
    samples, or ``None`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    if n <= 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n - 1e-9))
    return rank if n - rank >= MIN_BEYOND else None


def percentile(samples, q: float) -> "float | None":
    """Nearest-rank ``q``-th percentile of ``samples``, or ``None`` when
    the ten-samples-beyond rule does not hold."""
    ordered = sorted(samples)
    rank = percentile_rank(len(ordered), q)
    return None if rank is None else ordered[rank - 1]


#: Share of a run's slices, the quietest by median latency, that the
#: end-to-end figures are computed over (see README, "Machine contention").
QUIET_SHARE = 0.25


def quiet_figures(latencies, slices) -> dict:
    """Throughput and p50/p90 latency (ms) over the run's quietest slices.

    ``latencies`` are in seconds; ``slices`` are ``(first sample, end
    sample, busy seconds, queries)``, each the same mix of work, so a
    slice's median latency rises and falls with how much the machine
    slowed it.  The :data:`QUIET_SHARE` of slices with the lowest median
    are pooled; a percentile they hold too few samples for is ``None``.
    """
    def median(piece):
        ordered = sorted(latencies[piece[0]:piece[1]])
        return ordered[(len(ordered) - 1) // 2] if ordered else math.inf

    ranked = sorted(slices, key=median)
    quiet = ranked[:max(1, math.ceil(QUIET_SHARE * len(ranked)))]
    samples = [value for first, end, _, _ in quiet for value in latencies[first:end]]
    busy = sum(piece[2] for piece in quiet)
    figures = {"slices": len(quiet),
               "queries_per_s": sum(piece[3] for piece in quiet) / busy if busy else None}
    for q in (50, 90):
        value = percentile(samples, q)
        figures[f"latency_p{q}_ms"] = None if value is None else 1000.0 * value
    return figures


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident memory of this process, in MiB; with
    ``include_children``, plus the largest child this process waited for
    (``RUSAGE_CHILDREN`` reports the maximum over reaped children)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0

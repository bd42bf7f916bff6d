"""Seeded request streams for the four optimizer-benchmark workloads.

Everything here is request *generation*: it builds catalogs and trees
through ``repro.workloads`` and never calls the optimizer, so callers
keep it outside their timed regions.  A stream is a pure function of its
seed.

Query classes are named ``"<qid>/<joins>"`` for the paper's Q1-Q8
(linear join graphs, built by ``make_query_instance``) and
``"star/<joins>"`` for E1 over a star join graph.  Every class draws its
cardinality instances from a bounded range whose best costs are checked
in (``expected_costs.json``); :func:`instance_id` maps a position in
that range to the instance number the catalog generator is seeded with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Iterator

from repro.catalog.schema import StoredFileInfo
from repro.workloads.catalogs import make_experiment_catalog
from repro.workloads.expressions import build_e1, build_expression
from repro.workloads.queries import QUERIES
from repro.workloads.trees import TreeBuilder

STAR = "star"

# -- cold_mix ----------------------------------------------------------------
#
# One round of cold_mix traffic: 100 requests, as counts per class, plus
# one request from each rotating group (members of a group cost about the
# same; round k takes member k mod size).  A round is the benchmark's
# slice of cold_mix work (see child.py), so its percentiles must be
# reportable and stable on their own.  With classes sorted by search
# latency, each falls in the middle of one class band rather than on the
# border between two: p50 is the median of the 1-2 join E1 band (Q1/2,
# Q2/2: ranks 35-64), p90 the median of the Q7/1, Q8/1 band (ranks
# 85-96).  E2/E3 at 3 joins and E4 at 2 joins (0.3-2 s a search) are not
# in the mix: a round holding one would take several seconds and vary
# with which instance it drew.
COLD_ROUND = {
    "Q1/1": 17, "Q2/1": 17,
    "Q1/2": 15, "Q2/2": 15,
    "star/2": 3, "star/3": 3,
    "Q3/1": 2, "Q4/1": 2, "Q5/1": 2, "Q6/1": 2,
    "Q1/3": 2, "Q2/3": 2, "Q1/4": 1, "Q2/4": 1,
    "Q7/1": 6, "Q8/1": 6,
    "star/4": 1,
}
COLD_ROTATING = (
    ("Q3/2", "Q4/2", "Q5/2", "Q6/2"),
    ("Q1/5", "Q2/5"),
    ("Q1/6", "star/5", "Q2/6"),
)

# -- hot_repeat / catalog_churn -------------------------------------------------
#
# The pool, by Zipf popularity rank (rank 1 first).  Hit latency grows
# with plan size, so the rank-to-class layout fixes each class's share
# of traffic and with it where the percentiles fall; the seed only picks
# which cardinality instance fills each slot and the request order.
HOT_POOL = (
    "Q1/2", "Q3/2", "Q2/1", "Q6/1", "Q3/1", "Q7/1", "Q8/1", "Q5/1",
    "Q1/4", "Q2/2", "star/2", "Q4/1", "Q6/2", "Q5/2", "Q4/2", "star/3",
    "Q1/1", "Q2/3", "Q1/3", "Q8/1", "Q7/1", "Q2/1", "Q6/1", "Q3/1",
    "Q5/1", "Q4/1", "Q1/2", "Q2/2", "Q1/3", "Q2/3", "Q1/1", "Q2/1",
    "Q3/1", "Q4/1", "Q5/1", "Q6/1", "Q7/1", "Q8/1", "star/2", "star/3",
    "Q1/2", "Q2/2", "Q1/1", "Q2/1", "Q3/1", "Q4/1", "Q5/1", "Q6/1",
)
ZIPF_EXPONENT = 1.0

# catalog_churn: exactly one catalog write per block of this many
# requests, at a seeded position inside the block.
WRITE_EVERY = 500

# -- batch_process ---------------------------------------------------------------
#
# Every batch holds exactly these classes in this order.  The order is
# fixed so that round-robin striping over two workers always pairs the
# same classes (Q7/1 and Q8/1 on different workers); the seed picks the
# instances.
BATCH_CLASSES = ("Q7/1", "Q8/1", "Q1/2", "Q2/2", "Q3/1", "Q4/1", "Q5/1", "Q6/1")
BATCH_WORKERS = 2
# The batch optimizer's plan-cache bound.  Every run() ships the whole
# parent cache to each worker and merges each worker's cache back, so a
# batch's fixed cost grows with the bound: ~270 ms at the 256-entry
# default against ~60 ms at 64 (2 workers, 8 queries of ~100 ms search
# in all).  64 keeps a run at the 100+ batches its p90 needs within the
# run time, while shipping still costs about as much as the search.
BATCH_CACHE_ENTRIES = 64

# Cardinality instances available per class: how many distinct
# instances a run may draw before the class is exhausted.  Sized for
# several times the requests a run makes at the time of writing.
INSTANCES = {
    "Q1/1": 2400, "Q2/1": 2400, "Q1/2": 2400, "Q2/2": 2400,
    "Q3/1": 1600, "Q4/1": 1600, "Q5/1": 1600, "Q6/1": 1600,
    "Q7/1": 1600, "Q8/1": 1600,
    "Q1/3": 320, "Q2/3": 320, "Q1/4": 240, "Q2/4": 240,
    "Q1/5": 80, "Q2/5": 80, "Q1/6": 64, "Q2/6": 64,
    "Q3/2": 80, "Q4/2": 80, "Q5/2": 80, "Q6/2": 80,
    "star/2": 400, "star/3": 400, "star/4": 160, "star/5": 48,
}


def split_class(cls: str) -> "tuple[str, int]":
    family, joins = cls.split("/")
    return family, int(joins)


def instance_id(cls: str, position: int) -> int:
    """The catalog-generator instance number of ``position`` in ``cls``'s
    range.  Indexed queries (Q2, Q4, Q6, Q8) take odd numbers and the
    rest even ones: a query and its indexed twin build identical trees
    from identical cardinalities, so sharing instance numbers would give
    two requests one plan-cache key."""
    family, _ = split_class(cls)
    indexed = family != STAR and QUERIES[family].with_indices
    return 2 * position + (1 if indexed else 0)


def make_catalog(cls: str, position: int):
    family, joins = split_class(cls)
    instance = instance_id(cls, position)
    if family == STAR:
        return make_experiment_catalog(
            joins + 1, with_indices=False, with_targets=False, instance=instance
        )
    spec = QUERIES[family]
    return make_experiment_catalog(
        joins + 1,
        with_indices=spec.with_indices,
        with_targets=spec.uses_mat,
        instance=instance,
    )


def make_tree(schema, cls: str, catalog):
    """A freshly built initialized tree for ``cls`` over ``catalog``."""
    family, joins = split_class(cls)
    builder = TreeBuilder(schema, catalog)
    if family == STAR:
        return build_e1(builder, joins, topology="star")
    return build_expression(builder, QUERIES[family].template, joins)


def request_identity(cls: str, catalog) -> tuple:
    """What the plan cache keys a request on, up to the catalog's index
    declarations: template, join graph and base-class cardinalities."""
    family, joins = split_class(cls)
    template = STAR if family == STAR else QUERIES[family].template
    return (template, joins) + tuple(
        info.cardinality for info in catalog if info.name.startswith("C")
    )


class Exhausted(Exception):
    """A class ran out of checked-in instances during a run."""


class InstanceDraw:
    """Per-run, per-class draw of distinct instance positions, in a
    seeded order, skipping any whose request identity was already used
    this run (two instance numbers can, rarely, draw equal
    cardinalities)."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._orders: dict = {}
        self._seen: set = set()

    def next(self, cls: str):
        """``(position, catalog)`` of the next unused instance of ``cls``."""
        order = self._orders.get(cls)
        if order is None:
            order = list(range(INSTANCES[cls]))
            self._rng.shuffle(order)
            order.reverse()
            self._orders[cls] = order
        while order:
            position = order.pop()
            catalog = make_catalog(cls, position)
            identity = request_identity(cls, catalog)
            if identity not in self._seen:
                self._seen.add(identity)
                return position, catalog
        raise Exhausted(cls)


@dataclass
class Request:
    """One optimization request: ``tree`` over ``catalog``.

    ``long_lived`` marks catalogs the client keeps serving (pool
    members), for which it keeps one optimizer.
    """

    cls: str
    position: int
    catalog: Any
    tree: Any
    long_lived: bool = False


@dataclass
class Write:
    """A catalog write issued between requests (catalog_churn).

    ``kind`` is ``"refresh"`` (replace pool slot ``member`` with a new
    cardinality instance of its class: new catalog, new keys) or
    ``"ddl"`` (``Catalog.add`` an unrelated file to the slot's live
    catalog, so its cached plans go stale).
    """

    kind: str
    member: int


# -- streams -----------------------------------------------------------------------


def cold_rounds(schema, seed: int) -> Iterator["list[Request]"]:
    """cold_mix: endless rounds of never-repeated instances; each round
    is :data:`COLD_ROUND` plus one query of each rotating group, in a
    seeded order."""
    rng = random.Random(f"cold_mix:{seed}")
    draw = InstanceDraw(random.Random(f"cold_mix:instances:{seed}"))
    round_index = 0
    while True:
        classes = [cls for cls, count in COLD_ROUND.items() for _ in range(count)]
        classes.extend(group[round_index % len(group)] for group in COLD_ROTATING)
        rng.shuffle(classes)
        requests = []
        for cls in classes:
            position, catalog = draw.next(cls)
            requests.append(
                Request(cls, position, catalog, make_tree(schema, cls, catalog))
            )
        yield requests
        round_index += 1


def zipf_cum_weights(size: int, exponent: float = ZIPF_EXPONENT) -> "list[float]":
    return list(accumulate(1.0 / rank**exponent for rank in range(1, size + 1)))


class HotPool:
    """The hot_repeat / catalog_churn pool: :data:`HOT_POOL` slots, each
    holding one (class, instance, long-lived catalog)."""

    def __init__(self, seed: int, workload: str) -> None:
        self.draw = InstanceDraw(random.Random(f"{workload}:instances:{seed}"))
        self.members = []
        for cls in HOT_POOL:
            position, catalog = self.draw.next(cls)
            self.members.append((cls, position, catalog))

    def request(self, schema, member: int) -> Request:
        cls, position, catalog = self.members[member]
        return Request(cls, position, catalog, make_tree(schema, cls, catalog),
                       long_lived=True)

    def refresh(self, member: int) -> None:
        cls, _, _ = self.members[member]
        position, catalog = self.draw.next(cls)
        self.members[member] = (cls, position, catalog)


def ddl_file(serial: int) -> StoredFileInfo:
    """An unrelated stored file for a DDL write; its attribute names are
    unique so attribute lookups stay unambiguous."""
    return StoredFileInfo(
        name=f"X{serial}",
        attributes=(f"x{serial}_k", f"x{serial}_v"),
        cardinality=1000,
    )


def hot_stream(seed: int, pool_size: int, workload: str = "hot_repeat") -> Iterator[int]:
    """Pool slots requested with Zipf skew over popularity rank."""
    rng = random.Random(f"{workload}:requests:{seed}")
    cum = zipf_cum_weights(pool_size)
    slots = range(pool_size)
    while True:
        yield from rng.choices(slots, cum_weights=cum, k=1024)


def churn_blocks(seed: int, pool_size: int) -> Iterator["list"]:
    """catalog_churn: blocks of :data:`WRITE_EVERY` pool-slot reads with
    exactly one :class:`Write` at a seeded position.  Write targets
    follow the same Zipf popularity as reads, so a written slot is read
    again soon; the kind is a seeded coin flip."""
    reads = hot_stream(seed, pool_size, workload="catalog_churn")
    rng = random.Random(f"catalog_churn:writes:{seed}")
    cum = zipf_cum_weights(pool_size)
    while True:
        block: list = [next(reads) for _ in range(WRITE_EVERY - 1)]
        kind = "refresh" if rng.random() < 0.5 else "ddl"
        target = rng.choices(range(pool_size), cum_weights=cum, k=1)[0]
        block.insert(rng.randrange(WRITE_EVERY), Write(kind, target))
        yield block


def batch_stream(schema, seed: int) -> Iterator["list[Request]"]:
    """batch_process: batches of :data:`BATCH_CLASSES`, every instance
    new to the run."""
    draw = InstanceDraw(random.Random(f"batch_process:instances:{seed}"))
    while True:
        batch = []
        for cls in BATCH_CLASSES:
            position, catalog = draw.next(cls)
            batch.append(
                Request(cls, position, catalog, make_tree(schema, cls, catalog))
            )
        yield batch

"""Parallel batch optimization (multi-worker fan-out with shared cache).

Public surface:

* :class:`~repro.parallel.batch.BatchOptimizer` — optimize a batch of
  queries in ``serial`` or ``process`` mode with a persistent,
  mergeable plan cache;
* :class:`~repro.parallel.batch.BatchItem` /
  :class:`~repro.parallel.batch.BatchItemResult` /
  :class:`~repro.parallel.batch.BatchReport` — the batch data model;
* :func:`~repro.parallel.worker.resolve_factory` — the ``"module:attr"``
  rule-set factory contract process workers rebuild rule sets from.
"""

from repro.parallel.batch import (
    MODES,
    BatchItem,
    BatchItemResult,
    BatchOptimizer,
    BatchReport,
)
from repro.parallel.worker import resolve_factory

__all__ = [
    "MODES",
    "BatchItem",
    "BatchItemResult",
    "BatchOptimizer",
    "BatchReport",
    "resolve_factory",
]

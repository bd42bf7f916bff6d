"""Benchmark harness regenerating the paper's tables and figures.

* :mod:`repro.bench.timing` — repeat-and-average optimization timing
  (the paper looped each query instance 3000× under GNU ``time``; we use
  ``perf_counter`` with best-of-N repeats).
* :mod:`repro.bench.harness` — experiment drivers: one optimization
  point per (query family, join count, cardinality instance), run
  against both the Prairie-generated and hand-coded Volcano rule sets.
* :mod:`repro.bench.reporting` — plain-text table/series printers used
  by the ``benchmarks/`` suite to emit the same rows the paper reports.

The sweep sizes honour the paper's limits (E1/E2 to 8-way joins, E3/E4
to 3-way) in *full* mode; by default a reduced *quick* mode runs so that
``pytest benchmarks/`` finishes in minutes.  Set ``REPRO_BENCH_FULL=1``
for the full sweep.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ExperimentConfig": "repro.bench.harness",
    "OptimizerPair": "repro.bench.harness",
    "QueryPoint": "repro.bench.harness",
    "build_optimizer_pair": "repro.bench.harness",
    "run_query_point": "repro.bench.harness",
    "sweep_query": "repro.bench.harness",
    "format_table": "repro.bench.reporting",
    "print_series": "repro.bench.reporting",
    "time_callable": "repro.bench.timing",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)

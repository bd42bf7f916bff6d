"""Command-line interface: ``prairie-opt``.

Five subcommands, mirroring how a downstream user exercises the library:

* ``info`` — the bundled rule sets and what P2V derives from them;
* ``validate SPEC`` — parse and validate a Prairie specification file;
* ``translate SPEC`` — run P2V and emit the generated Volcano
  specification (or the normalized Prairie spec with ``--emit prairie``);
* ``optimize`` — optimize one of the paper's benchmark queries with a
  chosen engine and print the EXPLAIN output;
* ``batch`` — optimize a batch of benchmark queries over parallel
  workers (:mod:`repro.parallel`) and report throughput; ``--trace``
  writes the merged cross-worker timeline (one Chrome ``pid`` lane per
  worker).

Metrics-printing commands accept ``--metrics-format openmetrics`` for
Prometheus-scrapeable text and ``--metrics-file PATH`` to route the
registry to a file instead of interleaving with plan output.

Installed as a console script by ``pip install``; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import PrairieError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prairie-opt",
        description="Prairie rule-specification framework (ICDE 1995 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="describe the bundled rule sets")

    validate = sub.add_parser("validate", help="validate a Prairie spec file")
    validate.add_argument("spec", help="path to a Prairie specification")

    translate_cmd = sub.add_parser(
        "translate", help="run P2V over a Prairie spec file"
    )
    translate_cmd.add_argument("spec", help="path to a Prairie specification")
    translate_cmd.add_argument(
        "--emit",
        choices=("volcano", "prairie", "summary"),
        default="summary",
        help="what to print: the generated Volcano spec, the normalized "
        "Prairie spec, or a summary (default)",
    )
    translate_cmd.add_argument(
        "--name", default="cli", help="rule-set name for reports"
    )

    optimize = sub.add_parser(
        "optimize", help="optimize a benchmark query and print EXPLAIN"
    )
    optimize.add_argument(
        "--ruleset",
        choices=("oodb", "relational"),
        default="oodb",
        help="which bundled optimizer to use",
    )
    optimize.add_argument(
        "--query",
        default="Q5",
        help="query family Q1..Q8 (Table 5 of the paper)",
    )
    optimize.add_argument("--joins", type=int, default=2, help="number of joins")
    optimize.add_argument(
        "--instance", type=int, default=0, help="cardinality variation"
    )
    optimize.add_argument(
        "--engine",
        choices=("topdown", "bottomup"),
        default="topdown",
        help="search strategy",
    )
    optimize.add_argument(
        "--hand-coded",
        action="store_true",
        help="use the hand-coded Volcano rule set instead of the "
        "P2V-generated one",
    )
    optimize.add_argument(
        "--max-groups",
        type=int,
        default=None,
        help="heuristic: stop deriving alternatives past this many "
        "equivalence classes",
    )
    optimize.add_argument(
        "--disable-rule",
        action="append",
        default=[],
        metavar="RULE",
        help="heuristic: never fire the named rule (repeatable)",
    )
    optimize.add_argument(
        "--memo", action="store_true", help="also dump the memo contents"
    )
    optimize.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a structured search trace to FILE",
    )
    optimize.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace file format: JSON-lines (default) or Chrome "
        "chrome://tracing format",
    )
    optimize.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (search counters plus per-rule "
        "firing counts) after optimizing",
    )
    _add_metrics_output_args(optimize)
    optimize.add_argument(
        "--analyze",
        action="store_true",
        help="print EXPLAIN ANALYZE: the winning plan's derivation with "
        "per-group timings and rule provenance",
    )
    optimize.add_argument(
        "--quiet", action="store_true", help="suppress search statistics"
    )
    optimize.add_argument(
        "--profile",
        nargs="?",
        const=25,
        default=None,
        type=int,
        metavar="N",
        help="run the optimization under cProfile and print the top N "
        "functions by cumulative time (default 25)",
    )

    batch = sub.add_parser(
        "batch",
        help="optimize a batch of benchmark queries over parallel workers",
    )
    batch.add_argument(
        "--ruleset",
        choices=("oodb", "relational"),
        default="oodb",
        help="which bundled optimizer to use",
    )
    batch.add_argument(
        "--queries",
        default="Q1,Q2,Q3,Q4,Q5,Q6,Q7,Q8",
        help="comma-separated query families (default: Q1..Q8)",
    )
    batch.add_argument(
        "--joins", type=int, default=2, help="number of joins per query"
    )
    batch.add_argument(
        "--instance", type=int, default=0, help="cardinality variation"
    )
    batch.add_argument(
        "--workers", type=int, default=None, help="worker count (default: CPUs)"
    )
    batch.add_argument(
        "--mode",
        choices=("process", "thread", "serial"),
        default="process",
        help="fan-out mode (default: process)",
    )
    batch.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the batch N times against the same warm cache "
        "(shows the plan cache amortizing across batches)",
    )
    batch.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (batch throughput, per-worker "
        "cache hit rates) after the run",
    )
    _add_metrics_output_args(batch)
    batch.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write the merged cross-worker trace of the last batch round "
        "to FILE (workers appear as separate pid lanes in chrome://tracing)",
    )
    batch.add_argument(
        "--trace-format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="trace file format: Chrome chrome://tracing (default) or "
        "JSON-lines",
    )
    return parser


def _add_metrics_output_args(command) -> None:
    command.add_argument(
        "--metrics-file",
        metavar="PATH",
        default=None,
        help="write the metrics registry to PATH instead of stdout "
        "(implies --metrics)",
    )
    command.add_argument(
        "--metrics-format",
        choices=("text", "openmetrics"),
        default="text",
        help="metrics rendering: human-readable text (default) or "
        "Prometheus/OpenMetrics exposition",
    )


def _write_metrics(registry, args, out) -> None:
    if args.metrics_format == "openmetrics":
        text = registry.expose()
    else:
        text = registry.format() + "\n"
    if args.metrics_file:
        with open(args.metrics_file, "w", encoding="utf-8") as handle:
            handle.write(text)
        out.write(f"metrics: -> {args.metrics_file}\n")
    else:
        out.write("\nmetrics:\n" + text)


def _cmd_info(out) -> int:
    from repro.bench.harness import build_optimizer_pair

    for kind in ("relational", "oodb"):
        pair = build_optimizer_pair(kind)
        analysis = pair.translation.analysis
        counts = pair.prairie.counts()
        volcano_counts = pair.generated.counts()
        out.write(f"{kind}\n")
        out.write(
            f"  Prairie : {counts['operators']} operators, "
            f"{counts['algorithms']} algorithms, "
            f"{counts['t_rules']} T-rules, {counts['i_rules']} I-rules\n"
        )
        out.write(
            f"  Volcano : {volcano_counts['trans_rules']} trans_rules, "
            f"{volcano_counts['impl_rules']} impl_rules, "
            f"{volcano_counts['enforcers']} enforcer(s)\n"
        )
        out.write(
            f"  P2V     : enforcer-operators {analysis.enforcer_operators}, "
            f"physical {analysis.physical_properties}, "
            f"cost {analysis.cost_property!r}\n"
        )
    return 0


def _load_spec(path: str):
    from repro.optimizers.helpers import domain_helpers
    from repro.prairie.dsl import compile_spec

    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return compile_spec(source, name=path, helpers=domain_helpers())


def _cmd_validate(args, out) -> int:
    ruleset = _load_spec(args.spec)
    counts = ruleset.counts()
    out.write(
        f"OK: {counts['operators']} operators, {counts['algorithms']} "
        f"algorithms, {counts['t_rules']} T-rules, {counts['i_rules']} "
        f"I-rules\n"
    )
    return 0


def _cmd_translate(args, out) -> int:
    from repro.prairie.codegen import (
        format_prairie_spec,
        format_volcano_spec,
        spec_line_count,
    )
    from repro.prairie.translate import translate

    ruleset = _load_spec(args.spec)
    result = translate(ruleset)
    if args.emit == "volcano":
        out.write(format_volcano_spec(result) + "\n")
    elif args.emit == "prairie":
        out.write(format_prairie_spec(ruleset) + "\n")
    else:
        volcano = result.volcano
        out.write(f"{volcano!r}\n")
        for line in result.report.lines():
            out.write(f"  merge: {line}\n")
        out.write(
            f"  classification: physical={result.analysis.physical_properties} "
            f"cost={result.analysis.cost_property!r}\n"
        )
        generated = format_volcano_spec(result)
        out.write(
            f"  sizes: prairie={spec_line_count(format_prairie_spec(ruleset))} "
            f"generated-volcano={spec_line_count(generated)} lines\n"
        )
    return 0


def _cmd_optimize(args, out) -> int:
    from repro.bench.harness import build_optimizer_pair
    from repro.volcano.bottomup import BottomUpOptimizer
    from repro.volcano.explain import explain, explain_memo, explain_trace
    from repro.volcano.search import SearchOptions, VolcanoOptimizer
    from repro.workloads import make_query_instance

    pair = build_optimizer_pair(args.ruleset)
    ruleset = pair.hand_coded if args.hand_coded else pair.generated
    catalog, tree = make_query_instance(
        pair.schema, args.query, args.joins, args.instance
    )
    options = SearchOptions(
        disabled_rules=frozenset(args.disable_rule),
        max_groups=args.max_groups,
    )
    wants_metrics = args.metrics or args.metrics_file is not None
    tracer = None
    if args.trace or wants_metrics or args.analyze:
        from repro.obs import CollectingTracer

        tracer = CollectingTracer()
    if args.engine == "bottomup":
        optimizer = BottomUpOptimizer(ruleset, catalog, tracer=tracer)
        optimizer.options = options
    else:
        optimizer = VolcanoOptimizer(
            ruleset, catalog, options=options, tracer=tracer
        )
    if args.profile is not None:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        result = profiler.runcall(optimizer.optimize, tree)
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats(pstats.SortKey.CUMULATIVE).print_stats(
            max(1, args.profile)
        )
        out.write(buffer.getvalue())
    else:
        result = optimizer.optimize(tree)
    out.write(explain(result, verbose=not args.quiet) + "\n")
    if args.memo:
        out.write("\nmemo:\n" + explain_memo(result) + "\n")
    if args.analyze:
        out.write("\n" + explain_trace(result, tracer.events) + "\n")
    if args.trace:
        from repro.obs import write_chrome_trace, write_jsonl

        writer = write_chrome_trace if args.trace_format == "chrome" else write_jsonl
        count = writer(tracer.events, args.trace)
        out.write(f"\ntrace: {count} events -> {args.trace}\n")
    if wants_metrics:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.record_search_stats(result.stats)
        registry.count_trace(tracer.events)
        _write_metrics(registry, args, out)
    return 0


def _cmd_batch(args, out) -> int:
    from repro.bench.harness import build_optimizer_pair
    from repro.parallel import BatchItem, BatchOptimizer
    from repro.workloads import make_query_instance

    pair = build_optimizer_pair(args.ruleset)
    queries = [q.strip() for q in args.queries.split(",") if q.strip()]
    items = []
    for qname in queries:
        catalog, tree = make_query_instance(
            pair.schema, qname, args.joins, args.instance
        )
        items.append(
            BatchItem(
                tree=tree,
                catalog=catalog,
                label=f"{qname}({args.joins} joins)",
            )
        )
    registry = None
    if args.metrics or args.metrics_file is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    # One optimizer (and, in process mode, one worker set) serves every
    # round; leaving the block stops the workers.
    with BatchOptimizer(
        "repro.bench.harness:generated_ruleset",
        (args.ruleset,),
        mode=args.mode,
        workers=args.workers,
        trace=args.trace is not None,
    ) as optimizer:
        for round_number in range(1, max(1, args.repeat) + 1):
            report = optimizer.run(items)
            if registry is not None:
                registry.record_batch_report(report)
            out.write(
                f"batch {round_number}: {len(report.results)} queries, "
                f"mode={report.mode}, workers={report.workers}, "
                f"{report.elapsed_seconds:.3f}s "
                f"({report.queries_per_second:.1f} q/s), "
                f"cache merged={report.merged_entries}\n"
            )
    for item_result in report.results:
        out.write(
            f"  {item_result.label:<18} cost={item_result.cost:.4f} "
            f"groups={item_result.stats.groups} "
            f"mexprs={item_result.stats.mexprs}\n"
        )
    parent = optimizer.cache.stats()
    out.write(
        f"parent cache: {parent['entries']} entries, {parent['hits']} hits, "
        f"{parent['misses']} misses, {parent['merged_in']} merged in\n"
    )
    if args.trace:
        from repro.obs import write_chrome_trace, write_jsonl

        writer = (
            write_chrome_trace if args.trace_format == "chrome" else write_jsonl
        )
        count = writer(report.trace or [], args.trace)
        lanes = len({e.get("worker", 1) for e in report.trace or []})
        out.write(
            f"trace: {count} records ({lanes} worker lane(s)) -> "
            f"{args.trace}\n"
        )
    if registry is not None:
        _write_metrics(registry, args, out)
    return 0


def main(argv: "Sequence[str] | None" = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "info":
            return _cmd_info(out)
        if args.command == "validate":
            return _cmd_validate(args, out)
        if args.command == "translate":
            return _cmd_translate(args, out)
        if args.command == "optimize":
            return _cmd_optimize(args, out)
        if args.command == "batch":
            return _cmd_batch(args, out)
    except PrairieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())

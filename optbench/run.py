"""Run one workload of the optimizer benchmark and print its metrics.

From the repository root::

    python3 optbench/run.py --workload cold_mix --seed 1 --seconds 20 --trace 0

Workloads: ``cold_mix``, ``hot_repeat``, ``catalog_churn``,
``batch_process`` (see ``optbench/README.md``).  Every measurement and
set-up runs in a fresh interpreter (``child.py``).  With ``--trace 0``
the program runs unwrapped: set-up three times (the median is
``setup_s``), then one measured process.  With ``--trace 1`` one
untraced and one traced process share the time, and the per-layer
metrics and the tracing overhead (traced minus untraced median latency)
are reported.

Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is non-zero when any answer was wrong or any request raised.
Result details, stamped with ``bench_environment()``, are written to
``optbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import OUT_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

#: The end-to-end metrics of the JSON result line: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, seconds: float, trace: int,
              setup_only: bool = False) -> dict:
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    environment = dict(os.environ, PYTHONHASHSEED="0")
    command += ["--started", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              env=environment, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quiet(result: dict, name: str) -> float:
    value = result["quiet"][name]
    if value is None:
        raise ChildFailed(f"the quietest slices of {result['samples']} samples "
                          f"do not report {name}")
    return value


def end_to_end(setups: "list[float]", measured: dict) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "queries_per_s": quiet(measured, "queries_per_s"),
        "latency_p50_ms": quiet(measured, "latency_p50_ms"),
        "latency_p90_ms": quiet(measured, "latency_p90_ms"),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one optimizer-benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"optbench: {SRC / 'repro'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace == 0:
            setups = [run_child(args.workload, args.seed, args.seconds, 0, True)["setup_s"]
                      for _ in range(SETUP_REPEATS - 1)]
            measured = run_child(args.workload, args.seed, args.seconds, 0)
            setups.append(measured["setup_s"])
            metrics = end_to_end(setups, measured)
            units = dict(END_TO_END)
            runs = [measured]
        else:
            plain = run_child(args.workload, args.seed, args.seconds / 2, 0)
            traced = run_child(args.workload, args.seed, args.seconds / 2, 1)
            sys.path.insert(0, str(HERE))
            import layers

            metrics = dict(traced["layers"])
            metrics["trace.overhead_p50_ms"] = (quiet(traced, "latency_p50_ms")
                                                - quiet(plain, "latency_p50_ms"))
            units = layers.UNITS
            runs = [plain, traced]
    except ChildFailed as exc:
        print(f"optbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    measured = runs[-1]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed {measured['wall_s']:.1f} s")
    if args.trace == 0:
        share = f"quietest {measured['quiet']['slices']} of {measured['slices']} slices"
        counts = {"setup_s": f"median of {SETUP_REPEATS} set-ups",
                  "queries_per_s": f"{share}; {measured['completed']} queries in all",
                  "latency_p50_ms": f"{share}; {measured['samples']} samples in all",
                  "latency_p90_ms": f"{share}; {measured['samples']} samples in all",
                  "peak_rss_mb": "measured process"
                  + (" + largest worker" if args.workload == "batch_process" else "")}
        for name, value in metrics.items():
            print(f"  {name:<16} {value:>12.6g} {units[name]:<4} ({counts[name]})")
        pooled = measured["latency_ms"]
        print("  whole run: " + ", ".join(
            f"{name} -" if value is None
            else f"{name} {value:.6g} ms in {measured['percentile_class'][name]}"
            for name, value in pooled.items()))
    else:
        for name, value in metrics.items():
            print(f"  {name:<38} {value:>14.6g} {units[name]}")
    print(f"  failed_ratio {failed / attempted if attempted else 0.0:.6g} "
          f"({failed} of {attempted})")
    for run in runs:
        if run["exhausted"]:
            print(f"  note: class {run['exhausted']} ran out of checked-in instances")
        for failure in run["failures"]:
            print(f"  FAILED {failure}")

    sys.path.insert(0, str(SRC))
    from repro.bench.harness import bench_environment

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": bench_environment(),
              "metrics": metrics, "runs": runs}
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

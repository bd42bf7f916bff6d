"""BENCHMARK.json agrees with what the command prints."""

import json
from pathlib import Path

import layers
import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_command():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match_the_traced_report():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.METRICS)


def test_workloads_match_the_command():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS

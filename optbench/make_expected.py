"""Regenerate ``expected_costs.json``: best costs from the hand-coded rule set.

Optimizes every (class, instance position) of :data:`traffic.INSTANCES`
with ``build_oodb_volcano``'s hand-written Volcano rules and records the
best cost.  Takes a few minutes; run from the repository root::

    python3 optbench/make_expected.py            # all classes
    python3 optbench/make_expected.py Q7/2 Q8/2  # refresh some classes
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.bench.harness import build_optimizer_pair  # noqa: E402
from repro.volcano.search import VolcanoOptimizer  # noqa: E402

import traffic  # noqa: E402
from answers import EXPECTED_PATH  # noqa: E402


def class_costs(pair, cls: str) -> "list[float]":
    costs = []
    for position in range(traffic.INSTANCES[cls]):
        catalog = traffic.make_catalog(cls, position)
        tree = traffic.make_tree(pair.schema, cls, catalog)
        costs.append(VolcanoOptimizer(pair.hand_coded, catalog).optimize(tree).cost)
    return costs


def main(argv: "list[str]") -> int:
    pair = build_optimizer_pair("oodb")
    costs = {}
    if EXPECTED_PATH.exists():
        with open(EXPECTED_PATH) as handle:
            costs = json.load(handle)["costs"]
    for cls in argv or list(traffic.INSTANCES):
        started = time.perf_counter()
        costs[cls] = class_costs(pair, cls)
        print(f"{cls}: {len(costs[cls])} instances in "
              f"{time.perf_counter() - started:.1f} s", flush=True)
    document = {
        "about": "best costs from the hand-coded Volcano rule set "
                 "(build_oodb_volcano); regenerate with optbench/make_expected.py",
        "costs": {cls: costs[cls] for cls in traffic.INSTANCES},
    }
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Answer checks against the checked-in expected best costs.

``expected_costs.json`` holds, for every query class and every instance
position in its bounded range (:data:`traffic.INSTANCES`), the best cost
found by the *hand-coded* Volcano rule set (``build_oodb_volcano``) —
an independent implementation of the optimizer the benchmark runs,
which is generated from the Prairie spec.  ``make_expected.py``
regenerates the file.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_costs.json"

#: The relative tolerance ``repro.bench.harness.run_query_point`` uses
#: when it compares the two rule sets' best costs.
REL_TOL = 1e-6


def load_expected(path: Path = EXPECTED_PATH) -> "dict[str, list[float]]":
    with open(path) as handle:
        return json.load(handle)["costs"]


def cost_matches(cost: float, expected: float) -> bool:
    return abs(cost - expected) <= REL_TOL * max(1.0, abs(expected))


class AnswerChecker:
    """Checks every response; counts what failed.

    A searched response must carry the expected cost of its (class,
    instance).  A plan-cache hit must in addition render, through
    ``explain_plan``, to the same text as the search that stored it;
    the reference text is recorded per (catalog, class) on each search.
    """

    def __init__(self, expected: "dict[str, list[float]]", explain_plan) -> None:
        self.expected = expected
        self.explain_plan = explain_plan
        self.reference_text: dict = {}
        self.failures: list = []

    def check(self, request, cost: float, plan, hit: bool, keep_text: bool) -> bool:
        expected = self.expected[request.cls][request.position]
        if not cost_matches(cost, expected):
            return self.fail(request, f"cost {cost!r}, expected {expected!r}")
        if not keep_text:
            return True
        key = (id(request.catalog), request.cls)
        text = self.explain_plan(plan)
        if not hit:
            self.reference_text[key] = text
            return True
        if self.reference_text.get(key) != text:
            return self.fail(request, "cache hit plan differs from the stored search")
        return True

    def fail(self, request, why: str) -> bool:
        """Record a failed request (the first twenty are kept)."""
        if len(self.failures) < 20:
            self.failures.append(f"{request.cls} position {request.position}: {why}")
        return False

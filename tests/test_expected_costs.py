"""Best costs against the benchmark's checked-in answers.

``optbench/expected_costs.json`` records, for every query class the
benchmark draws from and every instance position in its range, the best
cost the hand-coded OODB rule set finds; the benchmark fails any answer
that misses it by more than ``answers.REL_TOL``.  This test holds the
generated rule set to the same answers on the first positions of every
class, so a change to the search that moves a cost in its rounding
digits fails here, not only in a benchmark run.  It reads the file and
never writes it.
"""

import sys
from pathlib import Path

import pytest

OPTBENCH = Path(__file__).resolve().parents[1] / "optbench"
if str(OPTBENCH) not in sys.path:
    sys.path.append(str(OPTBENCH))

import answers  # noqa: E402
import traffic  # noqa: E402

from repro.volcano.search import VolcanoOptimizer  # noqa: E402

POSITIONS = 6

EXPECTED = answers.load_expected()


@pytest.mark.parametrize("cls", sorted(traffic.INSTANCES))
def test_first_positions_match_expected_costs(schema, oodb_volcano_generated, cls):
    misses = []
    for position in range(POSITIONS):
        catalog = traffic.make_catalog(cls, position)
        tree = traffic.make_tree(schema, cls, catalog)
        cost = VolcanoOptimizer(oodb_volcano_generated, catalog).optimize(tree).cost
        expected = EXPECTED[cls][position]
        if not answers.cost_matches(cost, expected):
            misses.append((position, cost, expected))
    assert misses == []

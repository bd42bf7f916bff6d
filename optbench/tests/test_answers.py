import random

import answers
import traffic
from repro.volcano.search import VolcanoOptimizer


def test_expected_file_covers_every_instance_range():
    expected = answers.load_expected()
    assert set(expected) == set(traffic.INSTANCES)
    for cls, count in traffic.INSTANCES.items():
        assert len(expected[cls]) == count


def test_cost_tolerance_is_relative_one_in_a_million():
    assert answers.cost_matches(1000.0, 1000.0 * (1 + 0.9e-6))
    assert not answers.cost_matches(1000.0, 1000.0 * (1 + 2e-6))
    assert answers.cost_matches(0.0, 0.5e-6)


def test_generated_optimizer_matches_the_hand_coded_costs(ruleset):
    expected = answers.load_expected()
    rng = random.Random(0)
    for cls in ("Q1/1", "Q2/2", "Q3/1", "Q6/1", "Q8/1", "star/2", "star/3"):
        for position in rng.sample(range(traffic.INSTANCES[cls]), 3):
            catalog = traffic.make_catalog(cls, position)
            tree = traffic.make_tree(ruleset.schema, cls, catalog)
            cost = VolcanoOptimizer(ruleset, catalog).optimize(tree).cost
            assert answers.cost_matches(cost, expected[cls][position])


class _Request:
    def __init__(self, cls, position, catalog):
        self.cls, self.position, self.catalog = cls, position, catalog


def test_checker_flags_wrong_costs_and_changed_hit_plans():
    checker = answers.AnswerChecker({"Q1/1": [10.0]}, explain_plan=str)
    request = _Request("Q1/1", 0, object())
    assert not checker.check(request, 11.0, "plan", hit=False, keep_text=False)
    assert checker.check(request, 10.0, "plan A", hit=False, keep_text=True)
    assert checker.check(request, 10.0, "plan A", hit=True, keep_text=True)
    assert not checker.check(request, 10.0, "plan B", hit=True, keep_text=True)
    assert len(checker.failures) == 2

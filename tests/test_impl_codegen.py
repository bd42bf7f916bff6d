"""The generated impl-rule and enforcer functions (``ImplRule.apply``).

Each impl rule and enforcer is costed by a function generated at the
rule set's ``validate()`` (:func:`repro.volcano.patterns.compile_impl_rule`).
That the hand-coded OODB set, costed through these functions, gives the
generated set's costs is checked by ``tests/test_differential.py``.
"""

import dataclasses

import pytest

from repro.bench.harness import build_optimizer_pair
from repro.volcano.patterns import impl_rule_source


def _shipped_rulesets():
    for kind in ("oodb", "relational"):
        pair = build_optimizer_pair(kind)
        yield pair.translation.volcano
        yield pair.hand_coded


@pytest.mark.parametrize("index", range(4))
def test_every_impl_rule_and_enforcer_has_its_function(index):
    ruleset = list(_shipped_rulesets())[index]
    ruleset.validate()
    for rule in (*ruleset.impl_rules, *ruleset.enforcers):
        assert callable(rule.apply), rule.name
        source = impl_rule_source(rule)
        assert source.startswith("def apply(")
        assert rule.apply.__code__.co_name == "apply"


def test_rules_of_one_shape_share_code(oodb_volcano_generated):
    oodb_volcano_generated.validate()
    rules = (*oodb_volcano_generated.impl_rules, *oodb_volcano_generated.enforcers)
    assert len(rules) == 10
    assert len({rule.apply.__code__ for rule in rules}) < len(rules)


def test_rule_added_after_validate_gets_its_function_at_next_validate():
    from repro.optimizers.oodb_volcano import build_oodb_volcano

    ruleset = build_oodb_volcano()
    ruleset.validate()
    template = ruleset.impl_rules_for("JOIN")[0]
    extra = dataclasses.replace(template, name="join_hash_again")
    assert extra.apply is None
    ruleset.add_impl_rule(extra)
    assert extra.apply is None
    ruleset.validate()
    assert callable(extra.apply)
    assert extra.apply.__code__ is template.apply.__code__


def test_generated_source_unrolls_inputs(oodb_volcano_generated):
    (join_hash,) = [
        rule for rule in oodb_volcano_generated.impl_rules
        if rule.name == "join_hash"
    ]
    source = impl_rule_source(join_hash)
    assert "for " not in source
    assert "w0 = engine._optimize_group(state, g0, pv0)" in source
    assert "w1 = engine._optimize_group(state, g1, pv1)" in source

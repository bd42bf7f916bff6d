"""Unit tests for the specification emitters (round-trip + size metric)."""

import pytest

from repro.prairie.codegen import (
    format_irule,
    format_pattern,
    format_prairie_spec,
    format_trule,
    format_volcano_spec,
    spec_line_count,
)
from repro.prairie.dsl import compile_spec, parse_spec


class TestPatternFormatting:
    def test_round_trip_via_rules(self, relational_prairie):
        rule = relational_prairie.t_rules[0]
        text = format_pattern(rule.lhs)
        assert "JOIN(" in text
        assert ":D1" in text


class TestPrairieRoundTrip:
    def test_relational_round_trip(self, relational_prairie):
        text = format_prairie_spec(relational_prairie)
        reparsed = compile_spec(
            text, name="rt", helpers=relational_prairie.helpers
        )
        assert reparsed.counts()["t_rules"] == len(relational_prairie.t_rules)
        assert reparsed.counts()["i_rules"] == len(relational_prairie.i_rules)
        assert set(reparsed.operators) == set(relational_prairie.operators)
        assert set(reparsed.algorithms) == set(relational_prairie.algorithms)

    def test_oodb_round_trip(self, oodb_prairie):
        text = format_prairie_spec(oodb_prairie)
        reparsed = compile_spec(text, name="rt", helpers=oodb_prairie.helpers)
        assert len(reparsed.t_rules) == 22
        assert len(reparsed.i_rules) == 11

    def test_round_trip_preserves_rule_structure(self, relational_prairie):
        text = format_prairie_spec(relational_prairie)
        reparsed = compile_spec(text, helpers=relational_prairie.helpers)
        for original, roundtripped in zip(
            relational_prairie.i_rules, reparsed.i_rules
        ):
            assert original.name == roundtripped.name
            assert original.lhs == roundtripped.lhs
            assert original.rhs == roundtripped.rhs
            assert len(original.pre_opt) == len(roundtripped.pre_opt)
            assert len(original.post_opt) == len(roundtripped.post_opt)

    def test_round_trip_twice_is_stable(self, relational_prairie):
        once = format_prairie_spec(relational_prairie)
        reparsed = compile_spec(
            once, name=relational_prairie.name, helpers=relational_prairie.helpers
        )
        twice = format_prairie_spec(reparsed)
        assert once == twice


class TestRuleFormatting:
    def test_trule_sections_present(self, relational_prairie):
        text = format_trule(relational_prairie.t_rules[1])  # join_assoc
        assert text.count("{{") == 2
        assert "( " in text  # the test

    def test_irule_sections_present(self, relational_prairie):
        text = format_irule(relational_prairie.i_rules[0])
        assert text.count("{{") == 2


class TestVolcanoSpec:
    def test_sections_present(self, oodb_translation):
        text = format_volcano_spec(oodb_translation)
        assert "cost_property" in text
        assert "physical_property  tuple_order;" in text
        assert "derived_property   attributes;" in text
        assert "derived_property   tuple_size;" in text
        assert "argument_property  num_records;" in text
        assert text.count("trans_rule ") == 17
        assert text.count("impl_rule ") == 9
        assert text.count("enforcer ") == 1
        assert "do_any_good_" in text
        assert "get_input_pv_" in text
        assert "derive_phy_prop_" in text
        assert "cost_" in text

    def test_paper_size_ordering(self, oodb_prairie, oodb_translation):
        """Section 4.2's shape: Prairie spec < generated Volcano spec."""
        prairie_lines = spec_line_count(format_prairie_spec(oodb_prairie))
        volcano_lines = spec_line_count(format_volcano_spec(oodb_translation))
        assert prairie_lines < volcano_lines

    def test_relational_spec_renders(self, relational_translation):
        text = format_volcano_spec(relational_translation)
        assert text.count("impl_rule ") == 4


class TestNonCompactEmission:
    def test_noncompact_round_trip(self):
        from repro.optimizers.relational_noncompact import (
            build_relational_noncompact,
        )

        ruleset = build_relational_noncompact()
        text = format_prairie_spec(ruleset)
        reparsed = compile_spec(text, name=ruleset.name, helpers=ruleset.helpers)
        assert len(reparsed.t_rules) == 4
        assert len(reparsed.i_rules) == 6
        assert "JOPR" in reparsed.operators

    def test_synthesized_requirement_descriptors_render(self):
        from repro.optimizers.relational_noncompact import (
            build_relational_noncompact,
        )
        from repro.prairie.translate import translate

        text = format_volcano_spec(translate(build_relational_noncompact()))
        # the folded requirement descriptors P2V synthesized are visible
        assert "_Req0" in text
        assert "register_impl_rule" in text


class TestLineCount:
    def test_blank_lines_excluded(self):
        assert spec_line_count("a\n\n  \nb\n") == 2

"""Unit tests for P2V's classification pass (paper Section 3.1)."""

import pytest

from repro.algebra.operations import Algorithm, Operator
from repro.algebra.properties import DescriptorSchema, PropertyDef, PropertyType
from repro.errors import TranslationError
from repro.prairie.analysis import analyse
from repro.prairie.actions import PyAction
from repro.prairie.build import add, assign, block, copy_desc, lit, mul, node, prop, var
from repro.prairie.rules import IRule, TRule
from repro.prairie.ruleset import PrairieRuleSet


def schema(extra_cost: bool = False, no_cost: bool = False):
    props = [
        PropertyDef("tuple_order", PropertyType.ORDER),
        PropertyDef("compression", PropertyType.STRING),
        PropertyDef("join_predicate", PropertyType.PREDICATE),
        PropertyDef("num_records", PropertyType.FLOAT),
    ]
    if not no_cost:
        props.append(PropertyDef("cost", PropertyType.COST))
    if extra_cost:
        props.append(PropertyDef("cost2", PropertyType.COST))
    return DescriptorSchema(props)


def make_ruleset(s=None):
    rs = PrairieRuleSet("t", s or schema())
    rs.declare_operator(Operator.streams("SORT", 1))
    rs.declare_operator(Operator.streams("COMPRESS", 1))
    rs.declare_algorithm(Algorithm.streams("Merge_sort", 1))
    rs.declare_algorithm(Algorithm.streams("Zip", 1))
    rs.add_irule(
        IRule(
            name="sort_ms",
            lhs=node("SORT", var("S1", "D1"), desc="D2"),
            rhs=node("Merge_sort", var("S1"), desc="D3"),
            pre_opt=block(copy_desc("D3", "D2")),
        )
    )
    rs.add_irule(
        IRule(
            name="sort_null",
            lhs=node("SORT", var("S1", "D1"), desc="D2"),
            rhs=node("Null", var("S1", "D3"), desc="D4"),
            pre_opt=block(
                copy_desc("D4", "D2"),
                copy_desc("D3", "D1"),
                assign("D3", "tuple_order", prop("D2", "tuple_order")),
            ),
        )
    )
    rs.add_irule(
        IRule(
            name="compress_zip",
            lhs=node("COMPRESS", var("S1", "D1"), desc="D2"),
            rhs=node("Zip", var("S1", "D3"), desc="D4"),
            pre_opt=block(
                copy_desc("D4", "D2"),
                assign("D3", "compression", lit("none")),
            ),
            post_opt=block(assign("D4", "cost", prop("D3", "cost"))),
        )
    )
    return rs


class TestClassification:
    def test_cost_property_from_type(self):
        analysis = analyse(make_ruleset())
        assert analysis.cost_property == "cost"
        assert analysis.cost_properties == ("cost",)

    def test_physical_from_pre_opt_writes(self):
        analysis = analyse(make_ruleset())
        assert set(analysis.physical_properties) == {"tuple_order", "compression"}

    def test_physical_preserves_schema_order(self):
        analysis = analyse(make_ruleset())
        assert analysis.physical_properties == ("tuple_order", "compression")

    def test_argument_is_the_rest(self):
        analysis = analyse(make_ruleset())
        assert analysis.argument_properties == ("join_predicate", "num_records")

    def test_whole_descriptor_copies_are_not_physical_writes(self):
        # copy_desc("D3", "D2") alone must not classify anything physical.
        s = schema()
        rs = PrairieRuleSet("t", s)
        rs.declare_operator(Operator.streams("SORT", 1))
        rs.declare_algorithm(Algorithm.streams("Merge_sort", 1))
        rs.add_irule(
            IRule(
                name="sort_ms",
                lhs=node("SORT", var("S1", "D1"), desc="D2"),
                rhs=node("Merge_sort", var("S1"), desc="D3"),
                pre_opt=block(copy_desc("D3", "D2")),
            )
        )
        analysis = analyse(rs)
        assert analysis.physical_properties == ()

    def test_post_opt_writes_do_not_classify_physical(self):
        analysis = analyse(make_ruleset())
        # compress_zip assigns D4.cost in post-opt only; cost is COST-typed
        # anyway, but no other post-opt-only property becomes physical.
        assert "cost" not in analysis.physical_properties

    def test_i_rules_override(self):
        rs = make_ruleset()
        analysis = analyse(rs, i_rules=[])
        assert analysis.physical_properties == ()

    def test_missing_cost_property_rejected(self):
        rs = make_ruleset(schema(no_cost=True))
        with pytest.raises(TranslationError):
            analyse(rs)

    def test_multiple_cost_properties_rejected(self):
        rs = make_ruleset(schema(extra_cost=True))
        with pytest.raises(TranslationError):
            analyse(rs)


def stream_schema():
    return DescriptorSchema(
        [
            PropertyDef("width", PropertyType.FLOAT),
            PropertyDef("num_records", PropertyType.FLOAT),
            PropertyDef("join_predicate", PropertyType.PREDICATE),
            PropertyDef("cost", PropertyType.COST),
        ]
    )


def stream_ruleset(*t_rule_blocks):
    """JOIN over two streams: one commute T-rule per post-test block, and
    a nested-loops I-rule whose cost reads ``num_records``."""
    rs = PrairieRuleSet("streams", stream_schema())
    rs.declare_operator(Operator.streams("JOIN", 2))
    rs.declare_algorithm(Algorithm.streams("Nested_loops", 2))
    for index, post_test in enumerate(t_rule_blocks):
        rs.add_trule(
            TRule(
                name=f"commute_{index}",
                lhs=node("JOIN", var("S1", "DL1"), var("S2", "DL2"), desc="D1"),
                rhs=node("JOIN", var("S2"), var("S1"), desc="D2"),
                post_test=post_test,
            )
        )
    rs.add_irule(
        IRule(
            name="join_nl",
            lhs=node("JOIN", var("S1", "D1"), var("S2", "D2"), desc="D3"),
            rhs=node("Nested_loops", var("S1"), var("S2"), desc="D4"),
            pre_opt=block(copy_desc("D4", "D3")),
            post_opt=block(
                assign(
                    "D4",
                    "cost",
                    add(prop("D1", "cost"), mul(prop("D1", "num_records"), prop("D2", "cost"))),
                )
            ),
        )
    )
    return rs


DERIVING_BLOCK = block(
    copy_desc("D2", "D1"),
    assign("D2", "width", add(prop("DL2", "width"), prop("DL1", "width"))),
    assign(
        "D2", "num_records", mul(prop("DL2", "num_records"), prop("DL1", "num_records"))
    ),
    assign("D2", "join_predicate", prop("D1", "join_predicate")),
)


class TestDerivedProperties:
    def test_input_derived_and_unread_by_cost_is_derived(self):
        analysis = analyse(stream_ruleset(DERIVING_BLOCK))
        assert analysis.derived_properties == ("width",)
        assert analysis.classify("width") == "derived"

    def test_cost_read_property_stays_an_argument(self):
        # num_records is computed from the inputs, but the cost reads it.
        analysis = analyse(stream_ruleset(DERIVING_BLOCK))
        assert analysis.argument_properties == ("num_records", "join_predicate")

    def test_write_from_operator_descriptor_is_not_derived(self):
        # D1 is the rewritten operator's own descriptor, not an input.
        analysis = analyse(stream_ruleset(DERIVING_BLOCK))
        assert analysis.classify("join_predicate") == "argument"

    def test_one_non_input_write_disqualifies(self):
        other = block(assign("D2", "width", prop("D1", "width")))
        analysis = analyse(stream_ruleset(DERIVING_BLOCK, other))
        assert analysis.derived_properties == ()

    def test_write_must_read_the_same_property(self):
        other = block(assign("D2", "width", prop("DL1", "num_records")))
        analysis = analyse(stream_ruleset(DERIVING_BLOCK, other))
        assert analysis.derived_properties == ()

    def test_never_written_property_is_not_derived(self):
        analysis = analyse(stream_ruleset(block(copy_desc("D2", "D1"))))
        assert analysis.derived_properties == ()

    def test_python_action_leaves_nothing_derived(self):
        opaque = block(PyAction(lambda env: None, writes=(("D2", "width"),)))
        analysis = analyse(stream_ruleset(DERIVING_BLOCK, opaque))
        assert analysis.derived_properties == ()

    def test_oodb_spec_derives_attributes_and_tuple_size(self, oodb_translation):
        analysis = oodb_translation.analysis
        assert analysis.derived_properties == ("attributes", "tuple_size")
        assert analysis.classify("num_records") == "argument"
        volcano = oodb_translation.volcano
        assert volcano.derived_properties == ("attributes", "tuple_size")
        assert "attributes" not in volcano.argument_properties

    @pytest.mark.parametrize(
        "generated,hand",
        [
            ("oodb_volcano_generated", "oodb_volcano_hand"),
            ("relational_volcano_generated", "relational_volcano_hand"),
        ],
    )
    def test_hand_coded_sets_declare_the_p2v_classes(self, request, generated, hand):
        gen = request.getfixturevalue(generated)
        hand = request.getfixturevalue(hand)
        for attr in (
            "cost_property",
            "physical_properties",
            "derived_properties",
            "argument_properties",
        ):
            assert getattr(hand, attr) == getattr(gen, attr), attr


class TestEnforcerDetection:
    def test_null_rule_marks_enforcer_operator(self):
        analysis = analyse(make_ruleset())
        assert analysis.enforcer_operators == ("SORT",)

    def test_enforcer_algorithms(self):
        analysis = analyse(make_ruleset())
        assert analysis.enforcer_algorithms == ("Merge_sort",)

    def test_operator_without_null_not_enforcer(self):
        analysis = analyse(make_ruleset())
        assert "COMPRESS" not in analysis.enforcer_operators


class TestReporting:
    def test_classify(self):
        analysis = analyse(make_ruleset())
        assert analysis.classify("cost") == "cost"
        assert analysis.classify("tuple_order") == "physical"
        assert analysis.classify("join_predicate") == "argument"

    def test_summary_keys(self):
        summary = analyse(make_ruleset()).summary()
        assert set(summary) == {
            "cost",
            "physical",
            "argument",
            "derived",
            "enforcer_operators",
            "enforcer_algorithms",
        }

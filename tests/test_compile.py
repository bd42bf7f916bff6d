"""Unit tests for the rule-action compiler (compiled == interpreted)."""

import pytest

from repro.algebra.descriptors import Descriptor
from repro.algebra.properties import (
    DescriptorSchema,
    DONT_CARE,
    PropertyDef,
    PropertyType,
)
from repro.prairie.actions import (
    ActionBlock,
    ActionEnv,
    PyAction,
    PyTest,
    TRUE_TEST,
)
from repro.prairie.build import (
    assign,
    block,
    both,
    call,
    copy_desc,
    desc,
    div,
    either,
    eq,
    lit,
    mul,
    ne,
    neg,
    add,
    sub,
    prop,
    test as make_test,
)
from repro.prairie.compile import compile_block, compile_test
from repro.prairie.helpers import default_helpers


@pytest.fixture()
def schema():
    return DescriptorSchema(
        [
            PropertyDef("cost", PropertyType.COST),
            PropertyDef("num_records", PropertyType.FLOAT),
            PropertyDef("tuple_order", PropertyType.ORDER),
            PropertyDef("attributes", PropertyType.ATTRS),
        ]
    )


def make_env(schema, ctx=None):
    d1 = Descriptor(
        schema,
        {"cost": 2.0, "num_records": 8.0, "attributes": ("a", "b"), "tuple_order": "a"},
    )
    d2 = Descriptor(schema)
    return ActionEnv({"D1": d1, "D2": d2}, default_helpers(), context=ctx)


def run_both(schema, a_block):
    """Execute a block interpreted and compiled; return both D2 snapshots."""
    env_i = make_env(schema)
    a_block.execute(env_i)
    env_c = make_env(schema)
    compile_block(a_block, default_helpers())(env_c)
    return env_i.descriptors["D2"].as_dict(), env_c.descriptors["D2"].as_dict()


class TestCompiledBlocks:
    def test_property_assignment(self, schema):
        interpreted, compiled = run_both(
            schema, block(assign("D2", "cost", mul(prop("D1", "cost"), lit(3))))
        )
        assert interpreted == compiled
        assert compiled["cost"] == 6.0

    def test_whole_descriptor_copy(self, schema):
        interpreted, compiled = run_both(schema, block(copy_desc("D2", "D1")))
        assert interpreted == compiled
        assert compiled["num_records"] == 8.0

    def test_copy_then_override(self, schema):
        b = block(
            copy_desc("D2", "D1"),
            assign("D2", "tuple_order", lit(DONT_CARE)),
        )
        interpreted, compiled = run_both(schema, b)
        assert interpreted == compiled
        assert compiled["tuple_order"] is DONT_CARE

    def test_copy_does_not_alias(self, schema):
        env = make_env(schema)
        compile_block(block(copy_desc("D2", "D1")), default_helpers())(env)
        env.descriptors["D2"]["cost"] = 99.0
        assert env.descriptors["D1"]["cost"] == 2.0

    def test_helper_calls(self, schema):
        b = block(
            assign(
                "D2",
                "attributes",
                call("union", prop("D1", "attributes"), lit(("c",))),
            )
        )
        interpreted, compiled = run_both(schema, b)
        assert interpreted == compiled
        assert compiled["attributes"] == ("a", "b", "c")

    def test_contextual_helper_receives_context(self, schema):
        helpers = default_helpers()
        helpers.register("ctx_probe", lambda ctx, x: (ctx, x), pure=False)
        env = make_env(schema, ctx="THE_CONTEXT")
        b = block(assign("D2", "attributes", call("ctx_probe", lit(("a",)))))
        compile_block(b, helpers)(env)
        assert env.descriptors["D2"]["attributes"] == ("THE_CONTEXT", ("a",))

    def test_arithmetic_matrix(self, schema):
        b = block(
            assign(
                "D2",
                "cost",
                add(
                    sub(prop("D1", "num_records"), lit(2)),
                    div(mul(prop("D1", "cost"), lit(4)), lit(2)),
                ),
            )
        )
        interpreted, compiled = run_both(schema, b)
        assert interpreted == compiled
        assert compiled["cost"] == 10.0

    def test_empty_block_is_noop(self, schema):
        env = make_env(schema)
        before = env.descriptors["D2"].as_dict()
        compile_block(ActionBlock(), default_helpers())(env)
        assert env.descriptors["D2"].as_dict() == before

    def test_py_action_falls_back_to_interpreter(self, schema):
        marker = []
        b = ActionBlock([PyAction(lambda e: marker.append(1))])
        fn = compile_block(b, default_helpers())
        fn(make_env(schema))
        assert marker == [1]

    def test_compiled_write_is_seen_by_project(self, schema):
        env = make_env(schema)
        d2 = env.descriptors["D2"]
        assert d2.project(("tuple_order",)) == (DONT_CARE,)
        compile_block(
            block(assign("D2", "tuple_order", lit("a1"))), default_helpers()
        )(env)
        assert d2["tuple_order"] == "a1"
        assert d2.project(("tuple_order",)) == ("a1",)

    def test_predicate_literal_bound_as_global(self, schema):
        from repro.catalog.predicates import equals_const

        pred = equals_const("a", 1)
        b = block(assign("D2", "attributes", lit((pred,))))
        env = make_env(schema)
        compile_block(b, default_helpers())(env)
        assert env.descriptors["D2"]["attributes"] == (pred,)


class TestCompiledTests:
    def test_trivially_true(self, schema):
        fn = compile_test(TRUE_TEST, default_helpers())
        assert fn(make_env(schema)) is True

    def test_comparison(self, schema):
        fn = compile_test(
            make_test(eq(prop("D1", "cost"), lit(2.0))), default_helpers()
        )
        assert fn(make_env(schema))

    def test_dont_care_comparison(self, schema):
        fn = compile_test(
            make_test(ne(prop("D1", "tuple_order"), lit(DONT_CARE))),
            default_helpers(),
        )
        assert fn(make_env(schema))

    def test_boolean_connectives(self, schema):
        expr = both(
            either(lit(False), eq(prop("D1", "cost"), lit(2.0))),
            neg(lit(False)),
        )
        fn = compile_test(make_test(expr), default_helpers())
        assert fn(make_env(schema))

    def test_short_circuit_and(self, schema):
        # right operand would raise if evaluated
        expr = both(lit(False), call("no_such_helper"))
        helpers = default_helpers()
        helpers.register("no_such_helper", lambda: 1 / 0)
        fn = compile_test(make_test(expr), helpers)
        assert fn(make_env(schema)) is False

    def test_py_test_falls_back(self, schema):
        fn = compile_test(PyTest(lambda e: True), default_helpers())
        assert fn(make_env(schema))

    def test_interpreted_and_compiled_agree(self, schema):
        cases = [
            eq(prop("D1", "cost"), lit(2.0)),
            ne(prop("D1", "cost"), lit(3.0)),
            both(lit(True), eq(prop("D1", "tuple_order"), lit("a"))),
            either(lit(False), lit(False)),
            call("contains", prop("D1", "attributes"), lit("b")),
            # A read behind a short circuit: its descriptor is hoisted
            # ahead of the expression but never decides the result.
            both(lit(False), eq(prop("D2", "cost"), lit(1.0))),
            either(lit(True), eq(prop("D2", "cost"), lit(1.0))),
            # D2 read after D1, each hoisted once.
            both(
                eq(prop("D1", "cost"), lit(2.0)),
                eq(prop("D2", "tuple_order"), lit(DONT_CARE)),
            ),
            ne(prop("D1", "num_records"), prop("D2", "num_records")),
        ]
        for expr in cases:
            t = make_test(expr)
            env1, env2 = make_env(schema), make_env(schema)
            assert t.evaluate(env1) == compile_test(t, default_helpers())(env2)

"""Unit tests for matching rule patterns against memo content."""

import pytest

from repro.algebra.descriptors import Descriptor
from repro.algebra.expressions import Expression, StoredFileRef
from repro.algebra.operations import Operator
from repro.algebra.properties import DescriptorSchema, PropertyDef, PropertyType
from repro.algebra.patterns import PatternNode, PatternVar
from repro.volcano.memo import Memo, MExpr
from repro.volcano.patterns import match_mexpr

SCHEMA = DescriptorSchema(
    [
        PropertyDef("num_records", PropertyType.FLOAT),
        PropertyDef("cost", PropertyType.COST),
    ]
)
RET = Operator.on_file("RET")
JOIN = Operator.streams("JOIN", 2)


def d(n=0.0):
    return Descriptor(SCHEMA, {"num_records": n})


@pytest.fixture()
def memo_and_root():
    memo = Memo(("num_records",))
    r1 = Expression(RET, (StoredFileRef("R1", d()),), d(1.0))
    r2 = Expression(RET, (StoredFileRef("R2", d()),), d(2.0))
    r3 = Expression(RET, (StoredFileRef("R3", d()),), d(3.0))
    inner = Expression(JOIN, (r1, r2), d(12.0))
    root = Expression(JOIN, (inner, r3), d(123.0))
    group = memo.from_expression(root)
    return memo, group.mexprs[0]


def expand_op(memo):
    """The engine's expansion: a group's members with a given root op."""
    return lambda gid, op_name: memo.group(gid).by_op.get(op_name, ())


class TestFlatMatch:
    def test_commute_pattern_matches(self, memo_and_root):
        memo, root = memo_and_root
        pattern = PatternNode(
            "JOIN", (PatternVar("S1", "DL1"), PatternVar("S2", "DL2")), "D1"
        )
        bindings = list(match_mexpr(pattern, root, memo, expand_op(memo)))
        assert len(bindings) == 1
        binding = bindings[0]
        assert binding.descriptors["D1"] is root.descriptor
        assert binding.groups["S1"] == root.inputs[0]
        assert binding.groups["S2"] == root.inputs[1]

    def test_var_descriptor_binds_group_logical(self, memo_and_root):
        memo, root = memo_and_root
        pattern = PatternNode("JOIN", (PatternVar("S1", "DL1"), PatternVar("S2")), "D1")
        (binding,) = match_mexpr(pattern, root, memo, expand_op(memo))
        logical = memo.group(root.inputs[0]).logical_descriptor
        assert binding.descriptors["DL1"] is logical

    def test_wrong_operator_no_match(self, memo_and_root):
        memo, root = memo_and_root
        pattern = PatternNode("MAT", (PatternVar("S1"),), "D1")
        assert list(match_mexpr(pattern, root, memo, expand_op(memo))) == []

    def test_file_mexpr_never_matches(self, memo_and_root):
        memo, _root = memo_and_root
        file_mexpr = memo.group(0).mexprs[0]
        pattern = PatternNode("JOIN", (PatternVar("S1"), PatternVar("S2")), "D1")
        assert list(match_mexpr(pattern, file_mexpr, memo, expand_op(memo))) == []


class TestNestedMatch:
    def assoc_pattern(self):
        return PatternNode(
            "JOIN",
            (
                PatternNode(
                    "JOIN", (PatternVar("S1", "DA"), PatternVar("S2", "DB")), "D1"
                ),
                PatternVar("S3", "DC"),
            ),
            "D2",
        )

    def test_nested_match(self, memo_and_root):
        memo, root = memo_and_root
        bindings = list(
            match_mexpr(self.assoc_pattern(), root, memo, expand_op(memo))
        )
        assert len(bindings) == 1
        binding = bindings[0]
        assert binding.descriptors["D2"] is root.descriptor
        inner = memo.group(root.inputs[0]).mexprs[0]
        assert binding.descriptors["D1"] is inner.descriptor

    def test_nested_no_match_when_child_not_join(self, memo_and_root):
        memo, root = memo_and_root
        mirrored = PatternNode(
            "JOIN",
            (
                PatternVar("S1"),
                PatternNode("JOIN", (PatternVar("S2"), PatternVar("S3")), "D1"),
            ),
            "D2",
        )
        # root's right child is RET(R3): no JOIN member there
        assert list(match_mexpr(mirrored, root, memo, expand_op(memo))) == []

    def test_multiple_bindings_from_group_members(self, memo_and_root):
        memo, root = memo_and_root
        # Add a commuted variant to the inner join's group: two bindings.
        inner_gid = root.inputs[0]
        inner = memo.group(inner_gid).mexprs[0]
        swapped = MExpr("JOIN", (inner.inputs[1], inner.inputs[0]), d(21.0))
        memo.insert(swapped, group_id=inner_gid)
        bindings = list(
            match_mexpr(self.assoc_pattern(), root, memo, expand_op(memo))
        )
        assert len(bindings) == 2

    def test_expand_callback_drives_nested_members(self, memo_and_root):
        memo, root = memo_and_root
        calls = []

        def expand(gid, op_name):
            calls.append((gid, op_name))
            return memo.group(gid).by_op.get(op_name, ())

        list(match_mexpr(self.assoc_pattern(), root, memo, expand))
        assert calls == [(root.inputs[0], "JOIN")]


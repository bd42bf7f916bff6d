"""Unit tests for the generated rule matchers (repro.volcano.patterns).

The example tests pin what a left side binds.  The property tests compare
the generated loops against a recursive pattern walker that lives only in
this file, over random memos whose buckets may grow while they are being
iterated — the situation rule application creates in the search.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.descriptors import Descriptor
from repro.algebra.expressions import Expression, StoredFileRef
from repro.algebra.operations import Operator
from repro.algebra.patterns import PatternNode, PatternVar
from repro.algebra.properties import DescriptorSchema, PropertyDef, PropertyType
from repro.prairie.helpers import HelperRegistry
from repro.volcano.memo import Memo, MExpr
from repro.volcano.model import TransRule
from repro.volcano.patterns import (
    compile_matcher,
    compile_trans_rule,
    trans_rule_source,
)
from repro.volcano.search import SearchStats

SCHEMA = DescriptorSchema(
    [
        PropertyDef("num_records", PropertyType.FLOAT),
        PropertyDef("cost", PropertyType.COST),
    ]
)
ARGUMENT_PROPERTIES = ("num_records",)
RET = Operator.on_file("RET")
JOIN = Operator.streams("JOIN", 2)


def d(n=0.0):
    return Descriptor(SCHEMA, {"num_records": n})


@pytest.fixture()
def memo_and_root():
    memo = Memo(ARGUMENT_PROPERTIES)
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


def match(pattern, mexpr, memo, expand):
    return list(compile_matcher(pattern)(mexpr, memo, expand))


class TestFlatMatch:
    def test_commute_pattern_matches(self, memo_and_root):
        memo, root = memo_and_root
        pattern = PatternNode(
            "JOIN", (PatternVar("S1", "DL1"), PatternVar("S2", "DL2")), "D1"
        )
        bindings = match(pattern, root, memo, expand_op(memo))
        assert len(bindings) == 1
        groups, descriptors = bindings[0]
        assert descriptors["D1"] is root.descriptor
        assert groups["S1"] == root.inputs[0]
        assert groups["S2"] == root.inputs[1]

    def test_var_descriptor_binds_group_logical(self, memo_and_root):
        memo, root = memo_and_root
        pattern = PatternNode("JOIN", (PatternVar("S1", "DL1"), PatternVar("S2")), "D1")
        ((_groups, descriptors),) = match(pattern, root, memo, expand_op(memo))
        logical = memo.group(root.inputs[0]).logical_descriptor
        assert descriptors["DL1"] is logical

    def test_wrong_operator_no_match(self, memo_and_root):
        memo, root = memo_and_root
        pattern = PatternNode("MAT", (PatternVar("S1"),), "D1")
        assert match(pattern, root, memo, expand_op(memo)) == []

    def test_file_mexpr_never_matches(self, memo_and_root):
        memo, _root = memo_and_root
        file_mexpr = memo.group(0).mexprs[0]
        pattern = PatternNode("JOIN", (PatternVar("S1"), PatternVar("S2")), "D1")
        assert match(pattern, file_mexpr, memo, expand_op(memo)) == []


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
        bindings = match(self.assoc_pattern(), root, memo, expand_op(memo))
        assert len(bindings) == 1
        _groups, descriptors = bindings[0]
        assert descriptors["D2"] is root.descriptor
        inner = memo.group(root.inputs[0]).mexprs[0]
        assert descriptors["D1"] is inner.descriptor

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
        assert match(mirrored, root, memo, expand_op(memo)) == []

    def test_multiple_bindings_from_group_members(self, memo_and_root):
        memo, root = memo_and_root
        # Add a commuted variant to the inner join's group: two bindings.
        inner_gid = root.inputs[0]
        inner = memo.group(inner_gid).mexprs[0]
        swapped = MExpr("JOIN", (inner.inputs[1], inner.inputs[0]), d(21.0))
        memo.insert(swapped, group_id=inner_gid)
        bindings = match(self.assoc_pattern(), root, memo, expand_op(memo))
        assert len(bindings) == 2

    def test_expand_callback_drives_nested_members(self, memo_and_root):
        memo, root = memo_and_root
        calls = []

        def expand(gid, op_name):
            calls.append((gid, op_name))
            return memo.group(gid).by_op.get(op_name, ())

        match(self.assoc_pattern(), root, memo, expand)
        assert calls == [(root.inputs[0], "JOIN")]

    def test_bindings_are_lazy(self, memo_and_root):
        memo, root = memo_and_root
        calls = []

        def expand(gid, op_name):
            calls.append(gid)
            return memo.group(gid).by_op.get(op_name, ())

        bindings = compile_matcher(self.assoc_pattern())(root, memo, expand)
        assert calls == []
        next(bindings)
        assert calls == [root.inputs[0]]


# -- the reference walker -----------------------------------------------------
#
# A recursive generator walk over pattern trees: the interpreter the
# generated loops replace.  It yields (groups, descriptors) dicts in the
# order it binds them.


def walk(pattern, mexpr, memo, expand):
    if mexpr.is_file or mexpr.op_name != pattern.op_name:
        return
    if len(pattern.inputs) != len(mexpr.inputs):
        return
    yield from _walk_children(
        pattern.inputs, mexpr.inputs, 0, {}, {pattern.descriptor: mexpr.descriptor},
        memo, expand,
    )


def _walk_children(patterns, gids, index, groups, descriptors, memo, expand):
    if index == len(patterns):
        yield dict(groups), dict(descriptors)
        return
    pattern, gid = patterns[index], gids[index]
    if isinstance(pattern, PatternVar):
        groups = {**groups, pattern.var: gid}
        if pattern.descriptor is not None:
            descriptors = {
                **descriptors,
                pattern.descriptor: memo.group(gid).logical_descriptor,
            }
        yield from _walk_children(
            patterns, gids, index + 1, groups, descriptors, memo, expand
        )
        return
    for child in expand(gid, pattern.op_name):
        if child.is_file or child.op_name != pattern.op_name:
            continue
        if len(pattern.inputs) != len(child.inputs):
            continue
        nested = {**descriptors, pattern.descriptor: child.descriptor}
        for inner_groups, inner_descriptors in _walk_children(
            pattern.inputs, child.inputs, 0, groups, nested, memo, expand
        ):
            yield from _walk_children(
                patterns, gids, index + 1, inner_groups, inner_descriptors,
                memo, expand,
            )


# -- random memos and patterns --------------------------------------------------

ARITY = {"JOIN": 2, "MAT": 1, "SELECT": 1}


@st.composite
def memo_specs(draw):
    """A memo recipe: file leaves, then operator m-exprs over earlier
    groups, each into a new group or an existing non-file one."""
    n_files = draw(st.integers(1, 3))
    members = []
    groups = n_files
    for serial in range(draw(st.integers(1, 14))):
        op = draw(st.sampled_from(sorted(ARITY)))
        inputs = tuple(
            draw(st.integers(0, groups - 1)) for _ in range(ARITY[op])
        )
        target = None
        if groups > n_files and draw(st.booleans()):
            target = draw(st.integers(n_files, groups - 1))
        members.append((op, inputs, target, float(serial)))
        if target is None:
            groups += 1
    # Expansion calls (by call number) that insert a new member, and where.
    growth = draw(
        st.dictionaries(
            st.integers(0, 12),
            st.tuples(st.sampled_from(sorted(ARITY)), st.integers(0, 64)),
            max_size=4,
        )
    )
    return n_files, members, growth


def build_memo(spec):
    n_files, members, _growth = spec
    memo = Memo(ARGUMENT_PROPERTIES)
    for index in range(n_files):
        memo.add_file(StoredFileRef(f"F{index}", d()))
    for op, inputs, target, serial in members:
        memo.insert(
            MExpr(op, inputs, d(serial)), group_id=target, allow_cross_group=True
        )
    return memo


class Grower:
    """The expansion hook of a random case: on chosen calls it inserts a
    new member first, possibly into a bucket an outer loop is iterating."""

    def __init__(self, memo, spec):
        self.memo = memo
        self.n_files = spec[0]
        self.growth = spec[2]
        self.calls = []

    def grow(self, gid):
        call = len(self.calls)
        self.calls.append(gid)
        plan = self.growth.get(call)
        if plan is None:
            return
        op, pick = plan
        memo = self.memo
        interior = [g.gid for g in memo.groups if not g.is_file_group]
        target = interior[pick % len(interior)] if interior else None
        inputs = tuple(
            (pick + i) % len(memo.groups) for i in range(ARITY[op])
        )
        memo.insert(
            MExpr(op, inputs, d(1000.0 + call)),
            group_id=target, allow_cross_group=True,
        )

    def expand(self, gid, op_name):
        self.grow(gid)
        return self.memo.group(gid).by_op.get(op_name, ())


@st.composite
def lhs_patterns(draw, depth=0, names=None):
    names = names if names is not None else iter(range(1000))
    op = draw(st.sampled_from(sorted(ARITY)))
    inputs = []
    for _ in range(ARITY[op]):
        if depth < 2 and draw(st.booleans()):
            inputs.append(draw(lhs_patterns(depth + 1, names)))
        else:
            serial = next(names)
            desc = f"DV{serial}" if draw(st.booleans()) else None
            inputs.append(PatternVar(f"S{serial}", desc))
    return PatternNode(op, tuple(inputs), f"D{next(names)}")


def _roots(memo):
    return [m for g in memo.groups for m in g.mexprs if not m.is_file]


def _summary(bindings):
    """Bindings as (groups, [(descriptor name, num_records)]), in order —
    comparable across two memos built from one recipe."""
    return [
        (groups, [(name, desc.get("num_records")) for name, desc in descs.items()])
        for groups, descs in bindings
    ]


@settings(max_examples=150, deadline=None)
@given(spec=memo_specs(), pattern=lhs_patterns())
def test_generated_matcher_equals_reference_walker(spec, pattern):
    matcher = compile_matcher(pattern)
    reference_memo, generated_memo = build_memo(spec), build_memo(spec)
    reference_grower = Grower(reference_memo, spec)
    generated_grower = Grower(generated_memo, spec)
    for ref_root, gen_root in zip(_roots(reference_memo), _roots(generated_memo)):
        expected = list(
            walk(pattern, ref_root, reference_memo, reference_grower.expand)
        )
        actual = list(matcher(gen_root, generated_memo, generated_grower.expand))
        assert _summary(actual) == _summary(expected)
    assert generated_grower.calls == reference_grower.calls
    assert str(generated_memo) == str(reference_memo)


def _recording_rule(pattern, seen):
    """A rule over ``pattern`` whose condition records its environment
    and fails, so firing it leaves the memo unchanged."""

    def cond(env):
        seen.append(dict(env.descriptors))
        return False

    return TransRule("probe", pattern, pattern, cond, lambda env: None)


@settings(max_examples=150, deadline=None)
@given(spec=memo_specs(), pattern=lhs_patterns())
def test_fire_binds_what_the_matcher_yields(spec, pattern):
    """The engine's generated function and the matcher share their loops:
    the rule's condition sees every binding, in order, and exploration
    runs where the matcher expands."""
    seen = []
    fire = compile_trans_rule(_recording_rule(pattern, seen))
    matcher = compile_matcher(pattern)
    fire_memo, match_memo = build_memo(spec), build_memo(spec)
    fire_grower, match_grower = Grower(fire_memo, spec), Grower(match_memo, spec)
    engine = SimpleNamespace(
        _explore=lambda state, gid: fire_grower.grow(gid),
        _fire_constants=(
            HelperRegistry(), None, SCHEMA, ARGUMENT_PROPERTIES,
            Descriptor(SCHEMA).project(ARGUMENT_PROPERTIES),
        ),
    )
    state = SimpleNamespace(memo=fire_memo, stats=SearchStats(), emit=None)
    expected = []
    for fire_root, match_root in zip(_roots(fire_memo), _roots(match_memo)):
        fire(engine, state, fire_root, fire_root.group_id)
        expected.extend(
            descriptors
            for _, descriptors in matcher(match_root, match_memo, match_grower.expand)
        )
    assert _summary([({}, ds) for ds in seen]) == _summary(
        [({}, ds) for ds in expected]
    )
    assert fire_grower.calls == match_grower.calls
    assert state.stats.trans_considered == len(expected)
    assert state.stats.trans_fired == 0


def test_bucket_growing_during_iteration_is_seen_to_its_end():
    """JOIN(JOIN(..), JOIN(..)) over one group twice: the inner expansion
    adds a JOIN member to the group the outer loop is iterating."""

    def build():
        memo = Memo(ARGUMENT_PROPERTIES)
        f0 = memo.add_file(StoredFileRef("F0", d())).group_id
        f1 = memo.add_file(StoredFileRef("F1", d())).group_id
        inner, _ = memo.insert(MExpr("JOIN", (f0, f1), d(1.0)))
        root, _ = memo.insert(
            MExpr("JOIN", (inner.group_id, inner.group_id), d(2.0))
        )
        return memo, root

    spec = (2, [], {1: ("JOIN", 0)})  # the second expansion inserts
    pattern = PatternNode(
        "JOIN",
        (
            PatternNode("JOIN", (PatternVar("A"), PatternVar("B")), "D1"),
            PatternNode("JOIN", (PatternVar("C"), PatternVar("E")), "D3"),
        ),
        "D2",
    )
    memo, root = build()
    actual = match(pattern, root, memo, Grower(memo, spec).expand)
    reference_memo, reference_root = build()
    expected = list(
        walk(pattern, reference_root, reference_memo,
             Grower(reference_memo, spec).expand)
    )
    assert len(memo.group(root.inputs[0]).by_op["JOIN"]) == 2
    # The first outer member pairs with both inner members (the second
    # appeared during its iteration); the outer loop then reaches the
    # new member too.
    assert len(actual) == 4
    assert _summary(actual) == _summary(expected)


def test_rules_of_one_shape_share_compiled_code(oodb_volcano_generated):
    rules = {rule.name: rule for rule in oodb_volcano_generated.trans_rules}
    mat, select = rules["mat_push_join_left"], rules["select_join_push_left"]
    assert mat.fire.__code__ is select.fire.__code__
    assert mat.fire.__globals__["K0"] == "MAT"
    assert select.fire.__globals__["K0"] == "SELECT"
    assert rules["join_assoc"].fire.__code__ is not mat.fire.__code__


def test_fire_is_flat_loops_not_a_generator(oodb_volcano_generated):
    """One loop per nested left-side node, and nothing that yields."""
    rules = {rule.name: rule for rule in oodb_volcano_generated.trans_rules}
    commute = trans_rule_source(rules["join_commute"])
    assoc = trans_rule_source(rules["join_assoc"])
    assert commute.count(" for ") == 0
    assert assoc.count(" for ") == 1
    assert "yield" not in commute + assoc

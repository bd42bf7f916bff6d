"""Costing never writes a memo descriptor.

Impl rules and enforcers bind the m-expr descriptor (or, for an
enforcer, the group's logical descriptor) and the input groups' logical
descriptors as read-only left-side descriptors; an m-expr descriptor is
bound in place whenever the request leaves its physical values as they
are.  These searches explore every group first, record every m-expr
descriptor and every group logical descriptor, answer the root request,
and require the recorded values to be unchanged, on both OODB rule sets
and both relational ones, with and without a root order.
"""

import copy

import pytest

from repro.bench.harness import build_optimizer_pair
from repro.errors import NoPlanFoundError
from repro.optimizers.relational_noncompact import build_relational_noncompact
from repro.prairie.translate import translate
from repro.volcano.search import VolcanoOptimizer
from repro.workloads.queries import make_query_instance


def _snapshot(memo):
    return [
        (
            copy.deepcopy(group.logical_descriptor.as_dict()),
            [copy.deepcopy(mexpr.descriptor.as_dict()) for mexpr in group.mexprs],
        )
        for group in memo.groups
    ]


class _ExploreThenCost(VolcanoOptimizer):
    """Explores every group, then answers the request top-down."""

    def _search(self, state, root_gid, required):
        memo = state.memo
        gid = 0
        while gid < len(memo.groups):
            self._explore(state, gid)
            gid += 1
        self.before = _snapshot(memo)
        try:
            return super()._search(state, root_gid, required)
        finally:
            self.after = _snapshot(memo)


@pytest.fixture(scope="module")
def rulesets():
    oodb = build_optimizer_pair("oodb")
    relational = build_optimizer_pair("relational")
    return {
        "oodb-generated": (oodb.schema, oodb.translation.volcano),
        "oodb-hand": (oodb.schema, oodb.hand_coded),
        "relational": (relational.schema, relational.translation.volcano),
        "relational-noncompact": (
            relational.schema, translate(build_relational_noncompact()).volcano,
        ),
    }


@pytest.mark.parametrize("order", [False, True], ids=["unordered", "ordered"])
@pytest.mark.parametrize(
    "kind",
    ["oodb-generated", "oodb-hand", "relational", "relational-noncompact"],
)
def test_costing_leaves_memo_descriptors_unchanged(rulesets, kind, order):
    schema, ruleset = rulesets[kind]
    for qid in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"):
        for n_joins in (1, 2):
            catalog, tree = make_query_instance(schema, qid, n_joins, 0)
            required = (tree.descriptor["attributes"][0],) if order else None
            engine = _ExploreThenCost(ruleset, catalog)
            try:
                engine.optimize(tree, required=required)
            except NoPlanFoundError:
                # The relational sets implement no MAT or SELECT variant
                # for every family; the memo must still be untouched.
                pass
            assert engine.after == engine.before, (qid, n_joins)

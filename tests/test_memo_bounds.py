"""The process-wide helper memos stay bounded under endless new traffic.

Each memo clears itself when full and starts memoizing again, so a
process that serves never-repeated queries keeps a flat footprint and
still memoizes the current query's values.  Clearing must never change
a result.
"""

import pytest

from repro.catalog.predicates import equals_const
from repro.optimizers import costmodel
from repro.optimizers import helpers as optimizer_helpers
from repro.prairie import helpers as prairie_helpers

OVERFLOW = 37


def _round_values(count):
    return [1.0 + index / 7.0 for index in range(count)]


def test_round_memo_clears_when_full(monkeypatch):
    monkeypatch.setattr(costmodel, "_ROUND_MEMO", {})
    limit = costmodel._ROUND_MEMO_LIMIT
    values = _round_values(limit + OVERFLOW)
    results = [costmodel.round_estimate(value) for value in values]
    memo = costmodel._ROUND_MEMO
    assert len(memo) <= limit
    assert values[-1] in memo  # memoizing resumed after the clear
    assert results == [float(f"{value:.6g}") for value in values]
    assert [costmodel.round_estimate(value) for value in values] == results


def _conjunctions(count):
    return [
        (equals_const("a1", index), equals_const("b1", index))
        for index in range(count)
    ]


def test_pure_predicate_memo_clears_when_full(monkeypatch):
    monkeypatch.setattr(optimizer_helpers, "_PURE_MEMO", {})
    limit = optimizer_helpers._PURE_MEMO_LIMIT
    pairs = _conjunctions(limit + OVERFLOW)
    results = [optimizer_helpers.conjoin_preds(a, b) for a, b in pairs]
    memo = optimizer_helpers._PURE_MEMO
    assert len(memo) <= limit
    assert ("conj", *pairs[-1]) in memo
    optimizer_helpers._PURE_MEMO.clear()
    assert [optimizer_helpers.conjoin_preds(a, b) for a, b in pairs] == results


def test_union_memo_clears_when_full(monkeypatch):
    monkeypatch.setattr(prairie_helpers, "_UNION_MEMO", {})
    limit = prairie_helpers._UNION_MEMO_LIMIT
    operands = [((f"a{index}", "x"), ("x", "y")) for index in range(limit + OVERFLOW)]
    results = [prairie_helpers.union(*parts) for parts in operands]
    memo = prairie_helpers._UNION_MEMO
    assert len(memo) <= limit
    assert operands[-1] in memo
    assert results == [(left[0], "x", "y") for left, _ in operands]


@pytest.mark.parametrize(
    "module,name",
    [
        (costmodel, "_ROUND_MEMO_LIMIT"),
        (optimizer_helpers, "_PURE_MEMO_LIMIT"),
        (prairie_helpers, "_UNION_MEMO_LIMIT"),
    ],
)
def test_memo_limits_are_small(module, name):
    # Cold traffic adds a few entries per request; a limit in the tens of
    # thousands lets peak RSS climb with the number of requests served.
    assert getattr(module, name) <= 4096

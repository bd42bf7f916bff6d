"""Unit tests for the Volcano rule model and rule-set container."""

import pytest

from repro.algebra.operations import Algorithm, Operator
from repro.algebra.patterns import PatternNode, PatternVar
from repro.errors import RuleSetError
from repro.optimizers.schema import make_schema
from repro.prairie.helpers import default_helpers
from repro.volcano.model import Enforcer, ImplRule, TransRule, VolcanoRuleSet


def _true(env):
    return True


def _noop(env):
    return None


def _pv(env, index=0):
    return (None,)


def _derive(env):
    return (None,)


def _cost(env):
    return 1.0


def node(op, *inputs, desc):
    return PatternNode(op, tuple(inputs), desc)


def var(name, desc=None):
    return PatternVar(name, desc)


def make_impl(name="r", operator="JOIN", algorithm=None):
    algorithm = algorithm or Algorithm.streams("Hash_join", 2)
    return ImplRule(
        name=name,
        operator=operator,
        algorithm=algorithm,
        lhs=node(operator, var("S1", "D1"), var("S2", "D2"), desc="D3"),
        rhs=node(algorithm.name, var("S1", "D4"), var("S2"), desc="D5"),
        cond_code=_true,
        do_any_good=_true,
        get_input_pv=_pv,
        derive_phy_prop=_derive,
        cost=_cost,
    )


class TestTransRule:
    def make(self):
        return TransRule(
            name="commute",
            lhs=node("JOIN", var("S1", "DL1"), var("S2"), desc="D1"),
            rhs=node("JOIN", var("S2"), var("S1"), desc="D2"),
            cond_code=_true,
            appl_code=_noop,
        )

    def test_descriptor_names_cached(self):
        rule = self.make()
        assert rule.lhs_descriptor_names == frozenset({"D1", "DL1"})
        assert rule.rhs_descriptor_names == frozenset({"D2"})
        # cached objects stay identical
        assert rule.lhs_descriptor_names is rule.lhs_descriptor_names

    def test_str(self):
        assert "commute" in str(self.make())


class TestImplRule:
    def test_metadata(self):
        rule = make_impl()
        assert rule.arity == 2
        assert rule.op_desc_name == "D3"
        assert rule.alg_desc_name == "D5"
        assert rule.lhs_input_desc(0) == "D1"
        assert rule.rhs_input_desc(0) == "D4"
        assert rule.rhs_input_desc(1) is None
        assert rule.lhs_descriptor_names == frozenset({"D1", "D2", "D3"})
        assert rule.rhs_descriptor_names == frozenset({"D4", "D5"})

    def test_lhs_operator_must_match(self):
        with pytest.raises(RuleSetError):
            ImplRule(
                name="bad",
                operator="JOIN",
                algorithm=Algorithm.streams("Hash_join", 2),
                lhs=node("SELECT", var("S1"), desc="D1"),
                rhs=node("Hash_join", var("S1"), desc="D2"),
                cond_code=_true,
                do_any_good=_true,
                get_input_pv=_pv,
                derive_phy_prop=_derive,
                cost=_cost,
            )

    def test_rhs_algorithm_must_match(self):
        with pytest.raises(RuleSetError):
            ImplRule(
                name="bad",
                operator="JOIN",
                algorithm=Algorithm.streams("Hash_join", 2),
                lhs=node("JOIN", var("S1"), var("S2"), desc="D1"),
                rhs=node("Sort_join", var("S1"), var("S2"), desc="D2"),
                cond_code=_true,
                do_any_good=_true,
                get_input_pv=_pv,
                derive_phy_prop=_derive,
                cost=_cost,
            )

    def test_descriptor_name_on_both_sides_rejected(self):
        with pytest.raises(RuleSetError, match="both sides"):
            ImplRule(
                name="bad",
                operator="JOIN",
                algorithm=Algorithm.streams("Hash_join", 2),
                lhs=node("JOIN", var("S1", "D1"), var("S2"), desc="D3"),
                rhs=node("Hash_join", var("S1", "D1"), var("S2"), desc="D5"),
                cond_code=_true,
                do_any_good=_true,
                get_input_pv=_pv,
                derive_phy_prop=_derive,
                cost=_cost,
            )


class TestEnforcerModel:
    def test_metadata(self):
        alg = Algorithm.streams("Merge_sort", 1)
        enforcer = Enforcer(
            name="sort",
            operator="SORT",
            algorithm=alg,
            lhs=node("SORT", var("S1", "D1"), desc="D2"),
            rhs=node("Merge_sort", var("S1"), desc="D3"),
            cond_code=_true,
            do_any_good=_true,
            get_input_pv=_pv,
            derive_phy_prop=_derive,
            cost=_cost,
        )
        assert enforcer.op_desc_name == "D2"
        assert enforcer.alg_desc_name == "D3"
        assert enforcer.lhs_input_desc(0) == "D1"
        assert enforcer.rhs_input_desc(0) is None
        assert "Merge_sort" in str(enforcer)


class TestVolcanoRuleSet:
    def make(self):
        rs = VolcanoRuleSet(
            name="t",
            schema=make_schema(),
            helpers=default_helpers(),
            physical_properties=("tuple_order",),
            argument_properties=("join_predicate",),
            cost_property="cost",
        )
        rs.declare_operator(Operator.streams("JOIN", 2))
        rs.declare_algorithm(Algorithm.streams("Hash_join", 2))
        return rs

    def test_impl_rules_indexed_by_operator(self):
        rs = self.make()
        rule = make_impl()
        rs.add_impl_rule(rule)
        assert rs.impl_rules_for("JOIN") == [rule]
        assert rs.impl_rules_for("SELECT") == []

    def test_duplicate_operator_rejected(self):
        rs = self.make()
        with pytest.raises(RuleSetError):
            rs.declare_operator(Operator.streams("JOIN", 2))

    def test_validate_requires_impl_rule_per_operator(self):
        rs = self.make()
        with pytest.raises(RuleSetError):
            rs.validate()

    def test_validate_unknown_operator_in_impl(self):
        rs = self.make()
        rs.add_impl_rule(make_impl())
        rs.add_impl_rule(
            make_impl(name="r2", operator="SELECT", algorithm=Algorithm.streams("Hash_join", 2))
        )
        with pytest.raises(RuleSetError):
            rs.validate()

    def test_validate_unknown_algorithm(self):
        rs = self.make()
        alien = Algorithm.streams("Alien", 2)
        rule = ImplRule(
            name="r",
            operator="JOIN",
            algorithm=alien,
            lhs=node("JOIN", var("S1"), var("S2"), desc="D1"),
            rhs=node("Alien", var("S1"), var("S2"), desc="D2"),
            cond_code=_true,
            do_any_good=_true,
            get_input_pv=_pv,
            derive_phy_prop=_derive,
            cost=_cost,
        )
        rs.add_impl_rule(rule)
        with pytest.raises(RuleSetError):
            rs.validate()

    def test_validate_unknown_enforcer_algorithm(self):
        rs = self.make()
        rs.add_impl_rule(make_impl())
        rs.add_enforcer(
            Enforcer(
                name="sort",
                operator="SORT",
                algorithm=Algorithm.streams("Merge_sort", 1),
                lhs=node("SORT", var("S1", "D1"), desc="D2"),
                rhs=node("Merge_sort", var("S1"), desc="D3"),
                cond_code=_true,
                do_any_good=_true,
                get_input_pv=_pv,
                derive_phy_prop=_derive,
                cost=_cost,
            )
        )
        with pytest.raises(RuleSetError, match="Merge_sort"):
            rs.validate()
        # The enforcer-operator SORT needs no declaration: P2V deletes it.
        rs.declare_algorithm(Algorithm.streams("Merge_sort", 1))
        rs.validate()

    def test_duplicate_rule_names_rejected(self):
        rs = self.make()
        rs.add_impl_rule(make_impl(name="same"))
        rs.add_impl_rule(make_impl(name="same"))
        with pytest.raises(RuleSetError):
            rs.validate()

    def test_validate_unknown_operator_in_trans(self):
        rs = self.make()
        rs.add_impl_rule(make_impl())
        rs.add_trans_rule(
            TransRule(
                name="tr",
                lhs=node("MYSTERY", var("S1"), desc="D1"),
                rhs=node("MYSTERY", var("S1"), desc="D2"),
                cond_code=_true,
                appl_code=_noop,
            )
        )
        with pytest.raises(RuleSetError):
            rs.validate()

    def test_counts_and_repr(self):
        rs = self.make()
        rs.add_impl_rule(make_impl())
        counts = rs.counts()
        assert counts["impl_rules"] == 1
        assert counts["trans_rules"] == 0
        assert "VolcanoRuleSet" in repr(rs)

    def test_valid_set_passes(self):
        rs = self.make()
        rs.add_impl_rule(make_impl())
        rs.validate()

    def test_unbound_rhs_variable_rejected(self):
        rs = self.make()
        rs.add_impl_rule(make_impl())
        rs.add_trans_rule(
            TransRule(
                name="tr",
                lhs=node("JOIN", var("S1"), var("S2"), desc="D1"),
                rhs=node("JOIN", var("S2"), var("S9"), desc="D2"),
                cond_code=_true,
                appl_code=_noop,
            )
        )
        with pytest.raises(RuleSetError, match=r"\?S9"):
            rs.validate()


class TestValidateOnce:
    """A service builds one engine per request, and every engine validates
    its rule set: only the first validation of an unchanged set works."""

    def make(self):
        rs = TestVolcanoRuleSet().make()
        rs.add_impl_rule(make_impl())
        rs.add_trans_rule(
            TransRule(
                name="commute",
                lhs=node("JOIN", var("S1", "DL1"), var("S2", "DL2"), desc="D1"),
                rhs=node("JOIN", var("S2"), var("S1"), desc="D2"),
                cond_code=_true,
                appl_code=_noop,
            )
        )
        return rs

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_body_runs_once_for_two_constructions(self, monkeypatch):
        from repro.catalog.schema import Catalog
        from repro.volcano import model
        from repro.volcano.search import VolcanoOptimizer

        rs = self.make()
        walks = self.count_calls(monkeypatch, model, "pattern_nodes")
        VolcanoOptimizer(rs, Catalog([]))
        after_first = len(walks)
        VolcanoOptimizer(rs, Catalog([]))
        assert after_first > 0
        assert len(walks) == after_first

    def test_changes_after_validation_are_checked(self):
        from repro.catalog.schema import Catalog
        from repro.volcano.search import VolcanoOptimizer

        rs = self.make()
        VolcanoOptimizer(rs, Catalog([]))
        rs.add_impl_rule(
            make_impl(
                name="bad", operator="SELECT",
                algorithm=Algorithm.streams("Hash_join", 2),
            )
        )
        with pytest.raises(RuleSetError):
            VolcanoOptimizer(rs, Catalog([]))
        with pytest.raises(RuleSetError):
            rs.validate()

    def test_each_declaration_clears_the_mark(self):
        rs = self.make()
        steps = [
            lambda: rs.declare_algorithm(Algorithm.streams("Filter", 1)),
            lambda: rs.declare_algorithm(Algorithm.streams("Merge_sort", 1)),
            lambda: rs.add_impl_rule(make_impl(name="r2")),
            lambda: rs.add_trans_rule(
                TransRule(
                    name="t2",
                    lhs=node("JOIN", var("S1"), var("S2"), desc="D1"),
                    rhs=node("JOIN", var("S1"), var("S2"), desc="D2"),
                    cond_code=_true,
                    appl_code=_noop,
                )
            ),
            lambda: rs.add_enforcer(
                Enforcer(
                    name="e",
                    operator="SORT",
                    algorithm=Algorithm.streams("Merge_sort", 1),
                    lhs=node("SORT", var("S1", "D1"), desc="D2"),
                    rhs=node("Merge_sort", var("S1"), desc="D3"),
                    cond_code=_true,
                    do_any_good=_true,
                    get_input_pv=_pv,
                    derive_phy_prop=_derive,
                    cost=_cost,
                )
            ),
            # Last: the new operator has no impl_rule, so the set is invalid.
            lambda: rs.declare_operator(Operator.streams("SELECT", 1)),
        ]
        for step in steps:
            rs.validate()
            assert rs._validated
            step()
            assert not rs._validated

    def test_trans_rules_compiled_once(self, monkeypatch):
        """Generated code belongs to the rule: building 1,000 optimizers
        over a validated rule set generates none."""
        from repro.catalog.schema import Catalog
        from repro.volcano import model
        from repro.volcano.search import VolcanoOptimizer

        rs = self.make()
        compiled = self.count_calls(monkeypatch, model, "compile_trans_rule")
        VolcanoOptimizer(rs, Catalog([]))
        assert len(compiled) == 1
        fire = rs.trans_rules[0].fire
        for _ in range(1000):
            VolcanoOptimizer(rs, Catalog([]))
        assert len(compiled) == 1
        assert rs.trans_rules[0].fire is fire
        # A second rule set holding the same rule object reuses its code.
        other = TestVolcanoRuleSet().make()
        other.add_impl_rule(make_impl())
        other.add_trans_rule(rs.trans_rules[0])
        other.validate()
        assert len(compiled) == 1

    def test_validated_rule_still_pickles(self):
        import pickle

        from repro.optimizers.relational_volcano import build_relational_volcano

        rule = build_relational_volcano().trans_rules[0]
        assert rule.fire is not None
        clone = pickle.loads(pickle.dumps(rule))
        assert clone.fire is None
        assert (clone.name, clone.lhs, clone.rhs) == (rule.name, rule.lhs, rule.rhs)
        rs = TestVolcanoRuleSet().make()
        rs.add_impl_rule(make_impl())
        rs.add_trans_rule(clone)
        rs.validate()
        assert callable(clone.fire)

"""The P2V pre-processor: Prairie rule sets → Volcano rule sets.

This is the software generator of Figure 8: it takes the clean Prairie
specification and produces the lower-level Volcano specification that the
search engine executes efficiently.  The translation (paper Section 3):

1. **Enforcer detection** — operators with a Null I-rule become
   enforcer-operators; their non-Null algorithms become enforcers.
2. **Rule merging** — enforcer-operators are spliced out of T-rules;
   identity/renaming rules are deleted and their requirement assignments
   folded into I-rules (:mod:`repro.prairie.merge`).
3. **Property classification** — cost / physical / derived stream
   property / operator-algorithm argument, derived from the merged rules
   (:mod:`repro.prairie.analysis`).  The argument properties become the
   engine's m-expr identity.
4. **Rule translation** — T-rules become trans_rules (pre-test + test →
   cond_code, post-test → appl_code); I-rules become impl_rules, with the
   four Volcano per-algorithm helper functions (``do_any_good``,
   ``get_input_pv``, ``derive_phy_prop``, ``cost``) *generated* from the
   I-rule's pre-opt/post-opt sections — the user never writes them.

The generated callables interpret the Prairie action ASTs at optimization
time.  A hand-coded Volcano rule set implements the same callables as raw
Python (see :mod:`repro.optimizers.relational_volcano`); both kinds run
on the same engine, which is what the paper's Figures 10–13 compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.algebra.operations import Algorithm, NULL_ALGORITHM_NAME
from repro.algebra.properties import DONT_CARE
from repro.errors import TranslationError
from repro.obs.tracer import span
from repro.prairie.actions import ActionBlock, ActionEnv, Test
from repro.prairie.analysis import RuleSetAnalysis, analyse
from repro.prairie.compile import compile_block, compile_test, mint_provenance
from repro.prairie.merge import MergedRules, MergeReport, merge_rules
from repro.prairie.rules import IRule, TRule
from repro.prairie.ruleset import PrairieRuleSet
from repro.volcano.model import Enforcer, ImplRule, TransRule, VolcanoRuleSet
from repro.volcano.properties import PropertyVector, dont_care_vector


@dataclass
class TranslationResult:
    """Everything P2V produces: the rule set plus its paper trail."""

    volcano: VolcanoRuleSet
    analysis: RuleSetAnalysis
    merged: MergedRules

    @property
    def report(self) -> MergeReport:
        return self.merged.report

    def summary(self) -> dict:
        """Rule-count arithmetic for the Section 4.2 comparison."""
        return {
            "prairie_t_rules": None,  # filled by caller who has the source
            "trans_rules": len(self.volcano.trans_rules),
            "impl_rules": len(self.volcano.impl_rules),
            "enforcers": len(self.volcano.enforcers),
            "deleted_t_rules": self.merged.report.deleted_t_rule_count,
            "null_i_rules": len(self.merged.null_i_rules),
        }


def translate(
    ruleset: PrairieRuleSet, tracer=None
) -> TranslationResult:
    """Run the full P2V pipeline over a Prairie rule set.

    ``tracer`` (optional) brackets each pipeline stage — merging,
    analysis, and every per-rule translation — in spans
    (``p2v.merge``, ``p2v.analyse``, ``p2v.translate_rule``), so a
    translation trace shows where generation time goes.  Translation is
    a one-time cost; nothing here touches the search hot path.
    """
    ruleset.validate()
    enforcer_ops = ruleset.null_ruled_operators()
    preliminary = RuleSetAnalysis(
        cost_properties=ruleset.schema.cost_properties(),
        physical_properties=(),
        argument_properties=(),
        derived_properties=(),
        enforcer_operators=enforcer_ops,
        enforcer_algorithms=(),
    )
    with span(tracer, "p2v.merge", ruleset=ruleset.name):
        merged = merge_rules(ruleset, preliminary)
    with span(tracer, "p2v.analyse", ruleset=ruleset.name):
        analysis = analyse(
            ruleset,
            i_rules=[
                *merged.i_rules,
                *merged.enforcer_i_rules,
                *merged.null_i_rules,
            ],
            t_rules=merged.t_rules,
        )

    volcano = VolcanoRuleSet(
        name=f"{ruleset.name} (P2V)",
        schema=ruleset.schema,
        helpers=ruleset.helpers,
        physical_properties=analysis.physical_properties,
        argument_properties=analysis.argument_properties,
        cost_property=analysis.cost_property,
        provenance="p2v-generated",
        derived_properties=analysis.derived_properties,
    )

    aliased = set(merged.report.operator_aliases)
    removed = set(enforcer_ops) | aliased
    for name, op in ruleset.operators.items():
        if name not in removed:
            volcano.declare_operator(op)
    for name, alg in ruleset.algorithms.items():
        if name != NULL_ALGORITHM_NAME:
            volcano.declare_algorithm(alg)

    for t_rule in merged.t_rules:
        with span(tracer, "p2v.translate_rule", rule=t_rule.name, kind="t_rule"):
            volcano.add_trans_rule(_translate_t_rule(t_rule, ruleset, tracer))
    for kind, rule_class, i_rules, add in (
        ("i_rule", ImplRule, merged.i_rules, volcano.add_impl_rule),
        ("enforcer", Enforcer, merged.enforcer_i_rules, volcano.add_enforcer),
    ):
        for i_rule in i_rules:
            with span(tracer, "p2v.translate_rule", rule=i_rule.name, kind=kind):
                add(
                    _translate_i_rule(
                        i_rule, ruleset, analysis, rule_class, tracer
                    )
                )

    volcano.validate()
    return TranslationResult(volcano=volcano, analysis=analysis, merged=merged)


def translate_to_volcano(
    ruleset: PrairieRuleSet, tracer=None
) -> VolcanoRuleSet:
    """Convenience wrapper returning just the generated Volcano rule set."""
    return translate(ruleset, tracer=tracer).volcano


# ---------------------------------------------------------------------------
# Per-rule translations
# ---------------------------------------------------------------------------


def _translate_t_rule(
    rule: TRule, ruleset: PrairieRuleSet, tracer=None
) -> TransRule:
    """T-rule → trans_rule (Table 4(a)).

    The pre-test statements and the test both become cond_code (they run
    before applicability is decided); the post-test statements become
    appl_code.  Both are *compiled* (:mod:`repro.prairie.compile`) — the
    generator stage of the optimizer-generator paradigm.
    """
    helpers = ruleset.helpers
    run_pre = compile_block(rule.pre_test, helpers, name="pre_test", tracer=tracer)
    run_test = compile_test(rule.test, helpers, name="test", tracer=tracer)
    appl_code = compile_block(
        rule.post_test, helpers, name="appl_code", tracer=tracer
    )

    if not rule.pre_test.statements:
        cond_code = run_test
    else:

        def cond_code(env: ActionEnv) -> bool:
            run_pre(env)
            return run_test(env)

    return TransRule(
        name=rule.name,
        lhs=rule.lhs,
        rhs=rule.rhs,
        cond_code=cond_code,
        appl_code=appl_code,
        doc=rule.doc,
        provenance_id=mint_provenance("prairie", "t_rule", rule.name),
    )


def _make_impl_callables(
    rule: IRule,
    ruleset: PrairieRuleSet,
    analysis: RuleSetAnalysis,
    tracer=None,
) -> dict[str, Callable]:
    """Generate the four Volcano helper functions from an I-rule.

    This is the heart of P2V's value proposition (Table 4(b)): the user
    wrote one rule with pre-opt/post-opt sections; Volcano wants a
    condition plus four per-algorithm functions.  We synthesize them:

    * ``do_any_good`` runs the pre-opt statements (they build the
      algorithm descriptor and the input requirement descriptors);
    * ``get_input_pv`` projects the physical properties off the RHS input
      requirement descriptors (no descriptor → no requirement);
    * ``derive_phy_prop`` projects the physical properties off the
      algorithm's descriptor;
    * ``cost`` runs the post-opt statements and reads the cost property
      off the algorithm's descriptor.
    """
    physical = analysis.physical_properties
    cost_prop = analysis.cost_property
    alg_desc = rule.rhs_descriptor
    rhs_input_descs = tuple(
        rule.rhs_input_descriptor(i) for i in range(rule.arity)
    )
    no_requirement = dont_care_vector(physical)
    rule_name = rule.name

    cond_code = compile_test(
        rule.test, ruleset.helpers, name="cond_code", tracer=tracer
    )
    run_pre_opt = compile_block(
        rule.pre_opt, ruleset.helpers, name="pre_opt", tracer=tracer
    )
    run_post_opt = compile_block(
        rule.post_opt, ruleset.helpers, name="post_opt", tracer=tracer
    )

    def do_any_good(env: ActionEnv) -> bool:
        run_pre_opt(env)
        return True

    def get_input_pv(env: ActionEnv, index: int) -> PropertyVector:
        name = rhs_input_descs[index]
        if name is None:
            return no_requirement
        return env.descriptors[name].project(physical)

    def derive_phy_prop(env: ActionEnv) -> PropertyVector:
        return env.descriptors[alg_desc].project(physical)

    def cost(env: ActionEnv) -> float:
        run_post_opt(env)
        value = env.descriptors[alg_desc]._values[cost_prop]
        if value is DONT_CARE or not isinstance(value, (int, float)):
            raise TranslationError(
                f"I-rule {rule_name!r}: post-opt did not assign a numeric "
                f"{cost_prop!r} to {alg_desc} (got {value!r})"
            )
        return float(value)

    return {
        "cond_code": cond_code,
        "do_any_good": do_any_good,
        "get_input_pv": get_input_pv,
        "derive_phy_prop": derive_phy_prop,
        "cost": cost,
    }


def _translate_i_rule(
    rule: IRule,
    ruleset: PrairieRuleSet,
    analysis: RuleSetAnalysis,
    rule_class: "type[ImplRule]" = ImplRule,
    tracer=None,
) -> ImplRule:
    """I-rule → impl_rule (Table 4(b)).

    An enforcer-algorithm I-rule goes through the same machinery and
    becomes an :class:`Enforcer` (``rule_class``), which the engine
    applies at group level whenever a non-trivial property vector is
    requested.
    """
    if rule_class is Enforcer and rule.arity != 1:
        raise TranslationError(
            f"enforcer I-rule {rule.name!r} must take exactly one stream"
        )
    algorithm = ruleset.algorithms[rule.algorithm_name]
    callables = _make_impl_callables(rule, ruleset, analysis, tracer)
    return rule_class(
        name=rule.name,
        operator=rule.operator_name,
        algorithm=algorithm,
        lhs=rule.lhs,
        rhs=rule.rhs,
        doc=rule.doc,
        provenance_id=mint_provenance("prairie", "i_rule", rule.name),
        **callables,
    )

"""Specification emitters: pretty-print rule sets back to text.

Two purposes:

1. **Round-tripping** — :func:`format_prairie_spec` renders a
   :class:`~repro.prairie.ruleset.PrairieRuleSet` in the textual DSL;
   parsing the output reproduces the rule set (property-tested).
2. **The Section 4.2 size comparison** — the paper measures programmer
   effort partly in specification lines (Prairie 12 100 vs hand-coded
   Volcano 13 400 vs P2V-generated Volcano 15 800).
   :func:`format_volcano_spec` renders the Volcano rule set P2V
   generates — patterns, property classification, cond/appl code, and
   the four generated support functions per algorithm — in a pseudo-C
   Volcano specification style, so its size can be compared against the
   Prairie source and the hand-coded Volcano module.
"""

from __future__ import annotations

from repro.algebra.operations import InputKind, NULL_ALGORITHM_NAME
from repro.algebra.patterns import PatternElem, PatternNode, PatternVar
from repro.prairie.actions import ActionBlock, PyTest, Test, TestExpr
from repro.prairie.rules import IRule, TRule
from repro.prairie.ruleset import PrairieRuleSet
from repro.prairie.translate import TranslationResult


def _format_kinds(op) -> str:
    return ", ".join(
        "file" if kind is InputKind.FILE else "stream" for kind in op.inputs
    )


def format_pattern(elem: PatternElem) -> str:
    if isinstance(elem, PatternVar):
        if elem.descriptor:
            return f"?{elem.var}:{elem.descriptor}"
        return f"?{elem.var}"
    args = ", ".join(format_pattern(child) for child in elem.inputs)
    return f"{elem.op_name}({args}):{elem.descriptor}"


def format_block(block: ActionBlock, indent: str = "    ") -> str:
    if not block.statements:
        return indent + "{{ }}"
    lines = [indent + "{{"]
    for stmt in block:
        lines.append(f"{indent}    {stmt}")
    lines.append(indent + "}}")
    return "\n".join(lines)


def format_test(test: Test) -> str:
    if isinstance(test, PyTest):
        return f"( /* python */ {test.label} )"
    assert isinstance(test, TestExpr)
    return f"( {test} )"


def format_trule(rule: TRule) -> str:
    lines = [
        f"trule {rule.name}:",
        f"    {format_pattern(rule.lhs)} => {format_pattern(rule.rhs)}",
        format_block(rule.pre_test),
        f"    {format_test(rule.test)}",
        format_block(rule.post_test),
    ]
    return "\n".join(lines)


def format_irule(rule: IRule) -> str:
    lines = [
        f"irule {rule.name}:",
        f"    {format_pattern(rule.lhs)} => {format_pattern(rule.rhs)}",
        f"    {format_test(rule.test)}",
        format_block(rule.pre_opt),
        format_block(rule.post_opt),
    ]
    return "\n".join(lines)


def format_prairie_spec(ruleset: PrairieRuleSet) -> str:
    """Render a Prairie rule set in the textual DSL (parseable back)."""
    out: list[str] = [f"/* Prairie specification: {ruleset.name} */", ""]
    for prop in ruleset.schema:
        out.append(f"property {prop.name} : {prop.type.value};")
    out.append("")
    for op in ruleset.operators.values():
        out.append(f"operator {op.name}({_format_kinds(op)});")
    for alg in ruleset.algorithms.values():
        if alg.name == NULL_ALGORITHM_NAME:
            continue
        out.append(f"algorithm {alg.name}({_format_kinds(alg)});")
    out.append(f"algorithm {NULL_ALGORITHM_NAME}(stream);")
    out.append("")
    for name in ruleset.helpers.names:
        out.append(f"helper {name};")
    out.append("")
    for rule in ruleset.t_rules:
        out.append(format_trule(rule))
        out.append("")
    for rule in ruleset.i_rules:
        out.append(format_irule(rule))
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Generated Volcano specification (pseudo-C, for the size comparison)
# ---------------------------------------------------------------------------


def _c_block(block: ActionBlock, indent: str) -> list[str]:
    if not block.statements:
        return [f"{indent}/* empty */"]
    return [f"{indent}{stmt}" for stmt in block]


def _c_descriptor_locals(names, indent: str) -> list[str]:
    """Local DESCRIPTOR declarations a generated C function needs."""
    return [f"{indent}DESCRIPTOR *{name} = bind_descriptor(\"{name}\");" for name in sorted(names)]


def format_volcano_spec(result: TranslationResult) -> str:
    """Render the P2V-generated Volcano specification as text.

    The rendering mirrors what the paper's P2V emitted for the real
    Volcano generator: the model declaration with the derived property
    classification (derived stream properties get ``derived_property``
    lines; the ``argument_property`` lines are the m-expr identity), one
    ``trans_rule`` per T-rule with ``cond_code`` and
    ``appl_code`` sections, one ``impl_rule`` per I-rule with the four
    generated support functions spelled out, and the enforcers.
    """
    volcano = result.volcano
    analysis = result.analysis
    out: list[str] = [
        f"/* Volcano specification generated by P2V from {volcano.name!r} */",
        "",
        "/* ---- derived property classification ---- */",
        f"cost_property      {volcano.cost_property};",
    ]
    for prop in analysis.physical_properties:
        out.append(f"physical_property  {prop};")
    for prop in analysis.derived_properties:
        out.append(f"derived_property   {prop};")
    for prop in analysis.argument_properties:
        out.append(f"argument_property  {prop};")
    out.append("")
    out.append("/* ---- model ---- */")
    for op in volcano.operators.values():
        out.append(f"operator  {op.name} ({_format_kinds(op)});")
    for alg in volcano.algorithms.values():
        out.append(f"algorithm {alg.name} ({_format_kinds(alg)});")
    out.append("")

    out.append("/* ---- rule registration ---- */")
    for rule in volcano.trans_rules:
        out.append(
            f"register_trans_rule(\"{rule.name}\", "
            f"cond_{rule.name}, appl_{rule.name});"
        )
    for rule in volcano.impl_rules:
        out.append(
            f"register_impl_rule(\"{rule.name}\", {rule.operator}, "
            f"{rule.algorithm.name}, cond_{rule.name}, "
            f"do_any_good_{rule.name}, get_input_pv_{rule.name}, "
            f"derive_phy_prop_{rule.name}, cost_{rule.name});"
        )
    for enf in volcano.enforcers:
        out.append(
            f"register_enforcer(\"{enf.name}\", {enf.algorithm.name}, "
            f"cond_{enf.name}, cost_{enf.name});"
        )
    out.append("")

    for rule, merged_rule in zip(volcano.trans_rules, result.merged.t_rules):
        out.append(f"trans_rule {rule.name}")
        out.append(
            f"    {format_pattern(rule.lhs)}  ->  {format_pattern(rule.rhs)}"
        )
        out.append(f"int cond_{rule.name}(EXPR *lhs, BINDING *binding) {{")
        out.extend(
            _c_descriptor_locals(
                merged_rule.lhs_descriptors | merged_rule.rhs_descriptors, "    "
            )
        )
        out.extend(_c_block(merged_rule.pre_test, "    "))
        out.append(f"    return {merged_rule.test};")
        out.append("}")
        out.append(f"void appl_{rule.name}(EXPR *rhs, BINDING *binding) {{")
        out.extend(
            _c_descriptor_locals(
                merged_rule.lhs_descriptors | merged_rule.rhs_descriptors, "    "
            )
        )
        out.extend(_c_block(merged_rule.post_test, "    "))
        out.append("}")
        out.append("")

    def _impl_body(rule_obj, i_rule: IRule, kind: str) -> None:
        descriptor_names = i_rule.lhs_descriptors | i_rule.rhs_descriptors
        out.append(f"{kind} {rule_obj.name}")
        out.append(
            f"    {format_pattern(rule_obj.lhs)}  ->  {format_pattern(rule_obj.rhs)}"
        )
        out.append(f"int cond_{rule_obj.name}(OP_ARG *op_arg) {{")
        out.extend(_c_descriptor_locals({i_rule.lhs_descriptor}, "    "))
        out.append(f"    return {i_rule.test};")
        out.append("}")
        out.append(
            f"int do_any_good_{rule_obj.name}(OP_ARG *op_arg, ALG_ARG *alg_arg) {{"
        )
        out.extend(_c_descriptor_locals(descriptor_names, "    "))
        out.extend(_c_block(i_rule.pre_opt, "    "))
        out.append("    return TRUE;")
        out.append("}")
        out.append(
            f"PROPERTY_VECTOR get_input_pv_{rule_obj.name}"
            f"(ALG_ARG *alg_arg, int input) {{"
        )
        for index in range(len(i_rule.lhs.inputs)):
            desc = i_rule.rhs_input_descriptor(index)
            if desc is None:
                out.append(f"    if (input == {index}) return ANY_PROPERTY;")
            else:
                out.extend(_c_descriptor_locals({desc}, "    "))
                props = ", ".join(
                    f"{desc}.{p}" for p in analysis.physical_properties
                )
                out.append(f"    if (input == {index}) return ({props});")
        out.append("    return ANY_PROPERTY;")
        out.append("}")
        out.append(
            f"PROPERTY_VECTOR derive_phy_prop_{rule_obj.name}(ALG_ARG *alg_arg) {{"
        )
        out.extend(_c_descriptor_locals({i_rule.rhs_descriptor}, "    "))
        props = ", ".join(
            f"{i_rule.rhs_descriptor}.{p}" for p in analysis.physical_properties
        )
        out.append(f"    return ({props});")
        out.append("}")
        out.append(
            f"COST cost_{rule_obj.name}(ALG_ARG *alg_arg, COST *input_costs) {{"
        )
        out.extend(_c_descriptor_locals(descriptor_names, "    "))
        out.extend(_c_block(i_rule.post_opt, "    "))
        out.append(
            f"    return {i_rule.rhs_descriptor}.{volcano.cost_property};"
        )
        out.append("}")
        out.append("")

    for rule, i_rule in zip(volcano.impl_rules, result.merged.i_rules):
        _impl_body(rule, i_rule, "impl_rule")
    for enf, i_rule in zip(volcano.enforcers, result.merged.enforcer_i_rules):
        _impl_body(enf, i_rule, "enforcer")

    return "\n".join(out)


def spec_line_count(text: str) -> int:
    """Non-blank line count, the size metric of the Section 4.2 benchmark."""
    return sum(1 for line in text.splitlines() if line.strip())

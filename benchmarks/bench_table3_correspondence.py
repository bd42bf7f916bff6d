"""Table 3 — correspondence of elements in Prairie and Volcano.

The paper's table is a design statement; here it is *derived*: for the
Open-OODB rule set, P2V's analysis decides which Prairie elements become
which Volcano elements (enforcer-operators disappear, enforcer-
algorithms become enforcers, Null disappears, the single descriptor
splits into operator/algorithm argument + physical property + cost, and
the stream properties the T-rules derive from their inputs become
Volcano logical properties).
"""

from repro.bench.reporting import format_table
from repro.optimizers.oodb import build_oodb_prairie
from repro.prairie.translate import translate


def bench_table3_correspondence(benchmark, oodb_pair, report):
    translation = oodb_pair.translation
    analysis = translation.analysis
    volcano = translation.volcano
    prairie = oodb_pair.prairie

    rows = []
    for name in prairie.operators:
        if name in analysis.enforcer_operators:
            rows.append((f"Enforcer-operator {name}", "— (deleted by P2V)"))
        else:
            rows.append((f"Operator {name}", f"Operator {name}"))
    for name in prairie.algorithms:
        if name == "Null":
            rows.append(('"Null" algorithm', "— (implicit in the engine)"))
        elif name in analysis.enforcer_algorithms:
            rows.append((f"Enforcer-algorithm {name}", f"Enforcer {name}"))
        else:
            rows.append((f"Algorithm {name}", f"Algorithm {name}"))
    for prop in prairie.schema.names:
        kind = analysis.classify(prop)
        target = {
            "cost": "Cost",
            "physical": "Physical property",
            "derived": "Logical property",
            "argument": "Operator/Algorithm argument",
        }[kind]
        rows.append((f"Descriptor property {prop}", target))
    rows.append(("Operator tree", "Logical expression"))
    rows.append(("Access plan", "Physical expression"))

    report("table3_correspondence", format_table(("Prairie", "Volcano"), rows))

    # The structural facts of Table 3:
    assert analysis.enforcer_operators == ("SORT",)
    assert analysis.enforcer_algorithms == ("Merge_sort",)
    assert "SORT" not in volcano.operators
    assert "Null" not in volcano.algorithms
    assert analysis.physical_properties == ("tuple_order",)
    assert analysis.cost_property == "cost"

    # Benchmark the analysis+translation pass itself.
    benchmark(lambda: translate(build_oodb_prairie()))

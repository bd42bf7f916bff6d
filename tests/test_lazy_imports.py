"""Package ``__init__`` modules export their names lazily (PEP 562).

Importing one submodule must not import every sibling: a process that
only serves the generated rule set (a benchmark child, a batch worker)
never loads the hand-coded rule sets, the execution engine or the
bottom-up engine.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = (
    "repro",
    "repro.optimizers",
    "repro.bench",
    "repro.volcano",
    "repro.prairie",
    "repro.obs",
    "repro.engine",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in dir(module)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError):
        module.no_such_name


def test_volcano_explain_is_the_function_after_its_submodule_is_imported():
    import repro.volcano

    explain_module = importlib.import_module("repro.volcano.explain")
    assert repro.volcano.explain is explain_module.explain


def test_generated_ruleset_loads_only_what_it_needs():
    probe = (
        "import sys\n"
        "from repro.bench.harness import generated_ruleset\n"
        "generated_ruleset('oodb')\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    for absent in (
        "repro.optimizers.oodb_volcano",
        "repro.optimizers.relational",
        "repro.optimizers.relational_volcano",
        "repro.engine.executor",
        "repro.volcano.bottomup",
        "repro.parallel",
    ):
        assert absent not in out
    assert "repro.prairie.translate" in out

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


@pytest.fixture(scope="session")
def ruleset():
    from repro.bench.harness import generated_ruleset

    return generated_ruleset("oodb")

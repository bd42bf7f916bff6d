"""Unit tests for the benchmark harness."""

import pytest

from repro.bench.harness import (
    ExperimentConfig,
    OptimizerPair,
    build_optimizer_pair,
    current_git_sha,
    full_mode,
    run_query_point,
    sweep_query,
)
from repro.bench.reporting import format_seconds, format_table, print_series
from repro.bench.timing import adaptive_repeats, time_callable


class TestTiming:
    def test_time_callable_returns_result(self):
        seconds, result = time_callable(lambda: 42, repeats=2)
        assert result == 42
        assert seconds >= 0

    def test_time_callable_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: 1, repeats=0)

    def test_adaptive_repeats_bounds(self):
        assert adaptive_repeats(0.0) == 50
        assert adaptive_repeats(10.0) == 1
        assert adaptive_repeats(0.1, budget_seconds=1.0) == 10


class TestConfig:
    def test_quick_smaller_than_full(self):
        quick, full = ExperimentConfig.quick(), ExperimentConfig.full()
        assert quick.instances < full.instances
        for template in ("E1", "E2", "E4"):
            assert quick.max_joins[template] <= full.max_joins[template]

    def test_full_reproduces_paper_axes(self):
        full = ExperimentConfig.full()
        assert full.max_joins["E1"] == 8
        assert full.max_joins["E3"] == 3
        assert full.instances == 5

    def test_from_environment_default_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        assert not full_mode()
        assert ExperimentConfig.from_environment().instances == 2

    def test_from_environment_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        assert full_mode()
        assert ExperimentConfig.from_environment().instances == 5


class TestHarness:
    @pytest.fixture(scope="class")
    def pair(self):
        return build_optimizer_pair("oodb")

    def test_pair_cached(self, pair):
        assert build_optimizer_pair("oodb") is pair

    def test_pair_contents(self, pair):
        assert isinstance(pair, OptimizerPair)
        assert pair.generated.provenance == "p2v-generated"
        assert pair.hand_coded.provenance == "hand-coded"

    def test_relational_pair(self):
        pair = build_optimizer_pair("relational")
        assert pair.generated.counts()["impl_rules"] == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_optimizer_pair("mystery")

    def test_run_query_point(self, pair):
        point = run_query_point(pair, "Q1", n_joins=2, instances=2)
        assert point.qid == "Q1"
        assert point.prairie_seconds > 0
        assert point.volcano_seconds > 0
        assert point.equivalence_classes == 9
        assert point.trans_matched == 2
        assert point.instances == 2

    def test_overhead_percent(self, pair):
        point = run_query_point(pair, "Q1", n_joins=1, instances=1)
        assert -100.0 < point.overhead_percent < 1000.0

    def test_sweep_query(self, pair):
        config = ExperimentConfig(instances=1, max_joins={"E1": 3})
        points = sweep_query(pair, "Q1", config)
        assert [p.n_joins for p in points] == [1, 2, 3]
        classes = [p.equivalence_classes for p in points]
        assert classes == sorted(classes)

    def test_divergent_pair_detected(self, pair):
        """The harness refuses to benchmark two optimizers that disagree:
        a silent divergence would make the Figures 10–13 comparison
        meaningless."""
        from repro.bench.harness import OptimizerPair

        relational = build_optimizer_pair("relational")
        frankenstein = OptimizerPair(
            prairie=pair.prairie,
            translation=pair.translation,       # oodb-generated ...
            hand_coded=relational.hand_coded,   # ... vs relational hand-coded
        )
        with pytest.raises(AssertionError):
            run_query_point(frankenstein, "Q1", n_joins=2, instances=1)


class TestEnvironment:
    def test_current_git_sha_in_repo(self):
        sha = current_git_sha()
        assert sha == "unknown" or len(sha) == 40

    def test_current_git_sha_outside_repo(self, tmp_path):
        assert current_git_sha(str(tmp_path)) == "unknown"

    def test_bench_environment_keys(self):
        """optbench stamps every result with these keys.  (Imported
        through the module: a bare ``bench_*`` name would be collected
        as a benchmark.)"""
        from repro.bench import harness

        assert set(harness.bench_environment()) == {
            "python",
            "implementation",
            "platform",
            "cpu_count",
            "git_sha",
        }


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(("a", "bb"), [(1, 2), (333, 4)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "---" in lines[1]

    def test_format_seconds_scales(self):
        assert format_seconds(5e-7).endswith("us")
        assert format_seconds(5e-3).endswith("ms")
        assert format_seconds(2.0).endswith("s")

    def test_print_series(self):
        pair = build_optimizer_pair("oodb")
        point = run_query_point(pair, "Q1", n_joins=1, instances=1)
        text = print_series("Figure X", [point])
        assert "Figure X" in text
        assert "Prairie" in text
        assert "eq.classes" in text

"""Tests for the prairie-opt command-line interface."""

import io

import pytest

from repro.cli import main

MINI_SPEC = """
property file_name : string;
property attributes : attrs;
property num_records : float;
property tuple_order : order;
property cost : cost;

operator RET(file);
operator SORT(stream);
algorithm File_scan(file);
algorithm Merge_sort(stream);
algorithm Null(stream);

irule ret_file_scan:
    RET(?F:DF):D1 => File_scan(?F):D2
    ( TRUE )
    {{ D2 = D1; D2.tuple_order = DONT_CARE; }}
    {{ D2.cost = scan_cost(D1.file_name); }}

irule sort_merge_sort:
    SORT(?S1:D1):D2 => Merge_sort(?S1):D3
    ( D2.tuple_order != DONT_CARE )
    {{ D3 = D2; }}
    {{ D3.cost = D1.cost + 0.02 * D3.num_records * log2(D3.num_records); }}

irule sort_null:
    SORT(?S1:D1):D2 => Null(?S1:D3):D4
    ( TRUE )
    {{ D4 = D2; D3 = D1; D3.tuple_order = D2.tuple_order; }}
    {{ D4.cost = D3.cost; }}
"""


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "mini.prairie"
    path.write_text(MINI_SPEC)
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestInfo:
    def test_lists_both_rule_sets(self):
        code, text = run(["info"])
        assert code == 0
        assert "relational" in text
        assert "oodb" in text
        assert "22 T-rules" in text
        assert "17 trans_rules" in text


class TestValidate:
    def test_valid_spec(self, spec_file):
        code, text = run(["validate", spec_file])
        assert code == 0
        assert text.startswith("OK:")
        assert "3 I-rules" in text

    def test_invalid_spec(self, tmp_path):
        path = tmp_path / "bad.prairie"
        path.write_text("property cost : cost")  # missing semicolon
        code, _text = run(["validate", str(path)])
        assert code == 1

    def test_missing_file(self):
        code, _text = run(["validate", "/nonexistent/spec"])
        assert code == 1


class TestTranslate:
    def test_summary(self, spec_file):
        code, text = run(["translate", spec_file])
        assert code == 0
        assert "p2v-generated" in text
        assert "physical=('tuple_order',)" in text

    def test_emit_volcano(self, spec_file):
        code, text = run(["translate", spec_file, "--emit", "volcano"])
        assert code == 0
        assert "impl_rule ret_file_scan" in text
        assert "enforcer sort_merge_sort" in text

    def test_emit_prairie_round_trips(self, spec_file):
        code, text = run(["translate", spec_file, "--emit", "prairie"])
        assert code == 0
        from repro.optimizers.helpers import domain_helpers
        from repro.prairie.dsl import compile_spec

        reparsed = compile_spec(text, helpers=domain_helpers())
        assert len(reparsed.i_rules) == 3


class TestShippedSpecFiles:
    """The standalone .prairie files under examples/specs/ stay valid."""

    SPECS = __import__("pathlib").Path(__file__).parent.parent / "examples" / "specs"

    def test_relational_spec_file(self):
        code, text = run(["validate", str(self.SPECS / "relational.prairie")])
        assert code == 0
        assert "2 T-rules" in text

    def test_oodb_spec_file(self):
        code, text = run(["validate", str(self.SPECS / "oodb.prairie")])
        assert code == 0
        assert "22 T-rules" in text

    def test_oodb_spec_translates_to_paper_counts(self):
        code, text = run(["translate", str(self.SPECS / "oodb.prairie")])
        assert code == 0
        assert "17 trans_rules, 9 impl_rules, 1 enforcers" in text


class TestOptimize:
    def test_default_query(self):
        code, text = run(["optimize", "--query", "Q1", "--joins", "1", "--quiet"])
        assert code == 0
        assert "Hash_join" in text
        assert "total estimated cost" in text

    def test_verbose_statistics(self):
        code, text = run(["optimize", "--query", "Q1", "--joins", "1"])
        assert code == 0
        assert "equivalence classes" in text

    def test_relational_ruleset(self):
        code, text = run(
            ["optimize", "--ruleset", "relational", "--query", "Q2",
             "--joins", "1", "--quiet"]
        )
        assert code == 0
        assert "Merge_join" in text or "Nested_loops" in text

    def test_hand_coded_flag_same_cost(self):
        _code, generated = run(
            ["optimize", "--query", "Q1", "--joins", "2", "--quiet"]
        )
        _code, hand = run(
            ["optimize", "--query", "Q1", "--joins", "2", "--quiet",
             "--hand-coded"]
        )
        cost_line = [l for l in generated.splitlines() if "total" in l]
        assert cost_line == [l for l in hand.splitlines() if "total" in l]

    def test_bottomup_engine(self):
        code, text = run(
            ["optimize", "--query", "Q1", "--joins", "1",
             "--engine", "bottomup", "--quiet"]
        )
        assert code == 0
        assert "total estimated cost" in text

    def test_bottomup_engine_takes_options_at_construction(self, monkeypatch):
        from repro.volcano.bottomup import BottomUpOptimizer

        built = []
        construct = BottomUpOptimizer.__init__

        def spy(self, *args, **kwargs):
            construct(self, *args, **kwargs)
            built.append(self.options)

        monkeypatch.setattr(BottomUpOptimizer, "__init__", spy)
        code, text = run(
            ["optimize", "--query", "Q1", "--joins", "1", "--quiet",
             "--engine", "bottomup", "--disable-rule", "join_commute"]
        )
        assert code == 0
        assert [options.disabled_rules for options in built] == [
            frozenset({"join_commute"})
        ]
        assert "total estimated cost: 98.32" in text

    def test_heuristics_flags(self):
        code, text = run(
            ["optimize", "--query", "Q5", "--joins", "2", "--quiet",
             "--max-groups", "15", "--disable-rule", "select_split"]
        )
        assert code == 0
        assert "total estimated cost" in text

    def test_memo_dump(self):
        code, text = run(
            ["optimize", "--query", "Q1", "--joins", "1", "--quiet", "--memo"]
        )
        assert code == 0
        assert "memo:" in text
        assert "g0" in text

    def test_unknown_query_errors(self):
        code, _text = run(["optimize", "--query", "Q99", "--quiet"])
        assert code == 1

    def test_metrics_to_stdout(self):
        code, text = run(
            ["optimize", "--query", "Q1", "--joins", "1", "--quiet",
             "--metrics"]
        )
        assert code == 0
        assert "metrics:" in text

    def test_metrics_file_routes_registry_out_of_stdout(self, tmp_path):
        path = str(tmp_path / "metrics.txt")
        code, text = run(
            ["optimize", "--query", "Q1", "--joins", "1", "--quiet",
             "--metrics", "--metrics-file", path]
        )
        assert code == 0
        # plan output no longer interleaves with the registry dump
        assert "counters:" not in text
        assert path in text
        with open(path, encoding="utf-8") as handle:
            content = handle.read()
        assert "search.trans_fired" in content

    def test_metrics_file_implies_metrics(self, tmp_path):
        path = str(tmp_path / "metrics.txt")
        code, _text = run(
            ["optimize", "--query", "Q1", "--joins", "1", "--quiet",
             "--metrics-file", path]
        )
        assert code == 0
        assert __import__("os").path.exists(path)

    def test_metrics_openmetrics_format(self, tmp_path):
        path = str(tmp_path / "metrics.prom")
        code, _text = run(
            ["optimize", "--query", "Q1", "--joins", "1", "--quiet",
             "--metrics-file", path, "--metrics-format", "openmetrics"]
        )
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            content = handle.read()
        assert content.endswith("# EOF\n")
        assert "search_trans_fired_total" in content


class TestBatch:
    def test_serial_batch_runs(self):
        code, text = run(
            ["batch", "--queries", "Q1,Q2", "--mode", "serial"]
        )
        assert code == 0
        assert "2 queries" in text
        assert "parent cache:" in text

    def test_thread_mode_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["batch", "--queries", "Q1", "--mode", "thread"])
        assert exc_info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_batch_trace_chrome(self, tmp_path):
        import json

        path = str(tmp_path / "batch.json")
        code, text = run(
            ["batch", "--queries", "Q1,Q3", "--mode", "serial",
             "--trace", path]
        )
        assert code == 0
        assert "trace:" in text
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        names = {r["name"] for r in doc["traceEvents"]}
        assert "optimize_query" in names

    def test_batch_trace_jsonl(self, tmp_path):
        import json

        path = str(tmp_path / "batch.jsonl")
        code, _text = run(
            ["batch", "--queries", "Q1", "--mode", "serial",
             "--trace", path, "--trace-format", "jsonl"]
        )
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle if line.strip()]
        assert events[0]["type"] == "batch_begin"
        assert events[-1]["type"] == "batch_end"

    def test_batch_openmetrics_to_file(self, tmp_path):
        path = str(tmp_path / "batch.prom")
        code, _text = run(
            ["batch", "--queries", "Q1,Q2", "--mode", "serial",
             "--metrics-file", path, "--metrics-format", "openmetrics"]
        )
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            content = handle.read()
        assert content.endswith("# EOF\n")
        assert "batch_queries" in content

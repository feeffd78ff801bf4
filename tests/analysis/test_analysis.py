"""Tables, normalization, experiment reports, contract counters."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    Experiment,
    NormalizedResult,
    format_normalized,
    format_percent,
    geometric_mean,
    mean,
    render_table,
    summarize,
)
from repro.analysis.report import contract_counters, distill_contract_counters


class TestTables:
    def test_render_alignment(self):
        text = render_table(("a", "bb"), [("xxx", 1), ("y", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("a  ")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_floats_formatted(self):
        text = render_table(("v",), [(1.23456,)])
        assert "1.23" in text

    def test_format_percent(self):
        assert format_percent(0.0123) == "+1.23%"
        assert format_percent(-0.005) == "-0.50%"
        assert format_percent(0.5, signed=False) == "50.00%"

    def test_format_normalized(self):
        assert format_normalized(1.0123).startswith("1.0123")
        assert "+1.23%" in format_normalized(1.0123)


class TestNormalize:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([0.0, 1.0])

    def test_normalized_result(self):
        result = NormalizedResult("x", baseline_cycles=100, protected_cycles=101)
        assert result.normalized == pytest.approx(1.01)
        assert result.overhead == pytest.approx(0.01)

    def test_summarize(self):
        results = [
            NormalizedResult("a", 100, 101),
            NormalizedResult("b", 100, 99),
        ]
        summary = summarize(results)
        assert summary["max_overhead"] == pytest.approx(0.01)
        assert summary["min_overhead"] == pytest.approx(-0.01)
        assert summary["mean_normalized"] == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=20))
    def test_geomean_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestExperimentReport:
    def test_render_contains_rows_and_criteria(self):
        experiment = Experiment("Table 9", "An example")
        experiment.add("latency", 5, 5.1, unit="cycles", note="close")
        experiment.shape_criteria.append("must be tiny")
        text = experiment.render()
        assert "Table 9" in text
        assert "latency" in text
        assert "must be tiny" in text
        assert "cycles" in text


class TestContractCounters:
    RESULTS = [
        SimpleNamespace(contract_counts={"b": 2, "a": 1},
                        unwaived_contract_violations=1),
        SimpleNamespace(contract_counts={"b": 3},
                        unwaived_contract_violations=0),
    ]

    def test_named_order_lists_every_contract(self):
        counters = contract_counters(self.RESULTS, ("c", "b", "a"))
        assert list(counters["contract_counts"].items()) == [
            ("c", 0), ("b", 5), ("a", 1)]
        assert counters["unwaived_contract_violations"] == 1

    def test_unnamed_order_is_sorted_and_sparse(self):
        counters = contract_counters(self.RESULTS)
        assert list(counters["contract_counts"].items()) == [
            ("a", 1), ("b", 5)]

    def test_distillation_keys_reports_by_file_name(self, tmp_path):
        report = tmp_path / "fault_campaigns_nightly.json"
        report.write_text(json.dumps(dict(
            contract_counters(self.RESULTS, ("a", "b")), format="x")))
        legacy = tmp_path / "old_campaigns_nightly.json"
        legacy.write_text("{}")
        out = tmp_path / "results" / "contract_counters_nightly.json"
        counters = distill_contract_counters(
            [str(report), str(legacy), str(tmp_path / "missing.json")],
            str(out))
        assert counters == {
            "fault_campaigns_nightly.json": {
                "contract_counts": {"a": 1, "b": 5},
                "unwaived_contract_violations": 1,
            },
            "old_campaigns_nightly.json": {
                "contract_counts": {},
                "unwaived_contract_violations": None,
            },
        }
        assert json.loads(out.read_text()) == counters

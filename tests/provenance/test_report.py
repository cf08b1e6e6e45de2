"""The regression-report data model and its renderings."""

from __future__ import annotations

import json

import pytest

from repro.provenance import (
    RunLedger,
    RunRecord,
    build_report,
    compare_records,
    render_compare,
    render_report,
)


@pytest.fixture
def ledger(tmp_path):
    return RunLedger(tmp_path / "runs")


def rec(experiment="fig2", verdict="PASS", checks=(), **kwargs):
    fidelity = {"experiment": experiment, "verdict": verdict,
                "checks": list(checks)}
    return RunRecord(experiment=experiment, fidelity=fidelity, **kwargs)


CHECK = {"name": "accuracy", "status": "PASS", "expected": 0.99,
         "actual": 0.988, "tolerance": 0.01, "source": "Fig. 2",
         "note": ""}


class TestBuildReport:
    def test_cold_ledger_is_empty(self, ledger):
        report = build_report(ledger)
        assert report["empty"] is True
        assert report["verdict"] is None
        text = render_report(report)
        assert "no runs recorded yet" in text
        assert "repro run <experiment>" in text

    def test_single_run_has_no_previous(self, ledger):
        ledger.append(rec(checks=[CHECK], wall_s=1.0))
        report = build_report(ledger)
        (entry,) = report["experiments"]
        assert entry["previous"] is None
        assert entry["verdict"] == "PASS"
        assert report["verdict"] == "PASS"
        assert "no prior run" in render_report(report)

    def test_drift_and_wall_regression(self, ledger):
        ledger.append(rec(wall_s=1.0, metrics={"accuracy": 0.99}))
        ledger.append(rec(wall_s=2.0, metrics={"accuracy": 0.90}))
        report = build_report(ledger)
        (entry,) = report["experiments"]
        prev = entry["previous"]
        (row,) = prev["metrics"]
        assert row["previous"] == 0.99 and row["latest"] == 0.90
        assert row["pct"] == pytest.approx(-9.0909, rel=1e-3)
        assert prev["wall"]["regression"] is True
        assert report["wall_regressions"] == ["fig2"]
        assert "REGRESSION" in render_report(report)

    def test_verdict_is_worst_across_experiments(self, ledger):
        ledger.append(rec(experiment="a", verdict="PASS"))
        ledger.append(rec(experiment="b", verdict="WARN"))
        assert build_report(ledger)["verdict"] == "WARN"

    def test_bench_records_reported_separately(self, ledger):
        ledger.append(RunRecord(experiment="bench_summary", kind="bench",
                                metrics={"bench.fig6": 0.5}, wall_s=0.5))
        ledger.append(RunRecord(experiment="bench_summary", kind="bench",
                                metrics={"bench.fig6": 0.8}, wall_s=0.8))
        report = build_report(ledger)
        assert report["experiments"] == []
        bench = report["bench"]
        assert bench["benches"] == 1
        (row,) = bench["previous"]["metrics"]
        assert row["pct"] == pytest.approx(60.0)
        assert bench["previous"]["regressions"] == [row]
        assert "Benchmark wall times" in render_report(report)


class TestRenderings:
    def _report(self, ledger):
        ledger.append(rec(checks=[CHECK], wall_s=1.0,
                          metrics={"accuracy": 0.988}))
        ledger.append(rec(checks=[CHECK], wall_s=1.1,
                          metrics={"accuracy": 0.988}))
        return build_report(ledger)

    def test_text_tables(self, ledger):
        text = render_report(self._report(ledger))
        assert "Latest vs paper (verdict: PASS)" in text
        assert "Latest vs previous run (drift)" in text
        assert "Fig. 2" in text

    def test_markdown_tables(self, ledger):
        md = render_report(self._report(ledger), fmt="markdown")
        assert "### Latest vs paper" in md
        assert "| experiment |" in md.replace("  ", " ")

    def test_json_is_the_data_model(self, ledger):
        report = self._report(ledger)
        assert json.loads(render_report(report, fmt="json")) == report


class TestCompare:
    def test_per_metric_deltas(self):
        a = RunRecord(experiment="fig2", run_id="a" * 12, wall_s=1.0,
                      config_digest="d1",
                      metrics={"accuracy": 0.99, "gone": 1.0})
        b = RunRecord(experiment="fig2", run_id="b" * 12, wall_s=1.5,
                      config_digest="d1",
                      metrics={"accuracy": 0.97, "new": 2.0})
        cmp = compare_records(a, b)
        assert cmp["same_experiment"] and cmp["same_config"]
        (row,) = cmp["metrics"]
        assert row["metric"] == "accuracy"
        assert row["delta"] == pytest.approx(-0.02)
        assert cmp["only_a"] == ["gone"] and cmp["only_b"] == ["new"]
        assert cmp["wall"]["regression"] is True

    def test_render_flags_mismatches(self):
        a = RunRecord(experiment="fig2", config_digest="d1")
        b = RunRecord(experiment="fig6", config_digest="d2")
        text = render_compare(compare_records(a, b))
        assert "different experiments" in text
        c = RunRecord(experiment="fig2", config_digest="d2")
        text = render_compare(compare_records(a, c))
        assert "config digests differ" in text

    def test_render_json(self):
        a = RunRecord(experiment="fig2")
        b = RunRecord(experiment="fig2")
        cmp = compare_records(a, b)
        assert json.loads(render_compare(cmp, fmt="json")) == cmp


class TestLegacyAssaultRecords:
    """Ledgers from before the scenario corpus became the pytest suite
    ``tests/assault`` hold one ``kind="assault"`` record per tier run.
    They must still load, and must never sway the fidelity verdict."""

    @staticmethod
    def legacy_tier_record():
        # The shape the removed ``repro assault`` command appended.
        return RunRecord(
            experiment="assault_storm",
            kind="assault",
            start_ts="2026-10-01T12:00:00.000000Z",
            wall_s=1.8,
            metrics={"scenarios": 2.0, "passed": 1.0, "warned": 0.0,
                     "failed": 1.0, "seed": 2023.0},
            fidelity={
                "experiment": "assault_storm",
                "verdict": "FAIL",
                "checks": [
                    {"name": "cache_truncation", "status": "PASS",
                     "note": ""},
                    {"name": "cache_bitflip", "status": "FAIL",
                     "note": "degradation contract violated"},
                ],
            },
        )

    def test_build_report_ignores_assault_records(self, ledger):
        legacy = self.legacy_tier_record()
        ledger.append(legacy)
        assert build_report(ledger)["verdict"] is None
        ledger.append(rec(checks=[CHECK]))
        (stored,) = ledger.records(kind="assault")
        assert stored == legacy
        assert stored.verdict == "FAIL"
        assert len(ledger.records()) == 2
        report = build_report(ledger)
        assert [e["experiment"] for e in report["experiments"]] == ["fig2"]
        assert report["verdict"] == "PASS"

    def test_cli_reads_legacy_ledger(self, ledger, capsys):
        from repro.__main__ import main

        legacy = self.legacy_tier_record()
        ledger.append(legacy)
        ledger.append(rec(checks=[CHECK]))
        runs = ["--runs-dir", str(ledger.runs_dir)]
        assert main(["report", "--strict", "--json", *runs]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "PASS"
        assert main(["compare", legacy.run_id, legacy.run_id, *runs]) == 0
        assert "assault_storm" in capsys.readouterr().out

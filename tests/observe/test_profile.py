"""Self-time attribution and the ``repro profile`` pipeline/CLI."""

from __future__ import annotations

import json

import pytest

from repro.core import StudyConfig
from repro.observe import run_profile, self_time_rows, self_time_table
from repro.telemetry.spans import Span


def _tree(outer_s=1.0, inner_s=(0.6, 0.3)):
    return [Span.from_dict({
        "name": "outer", "attrs": {}, "start_wall": 100.0,
        "duration_s": outer_s,
        "children": [
            {"name": "inner", "attrs": {}, "start_wall": 100.0,
             "duration_s": d, "children": []}
            for d in inner_s
        ],
    })]


class TestSelfTime:
    def test_self_time_excludes_children(self):
        rows = {r["name"]: r for r in self_time_rows(_tree())}
        assert rows["outer"]["self_s"] == pytest.approx(0.1)
        assert rows["inner"]["self_s"] == pytest.approx(0.9)
        assert rows["inner"]["calls"] == 2

    def test_rows_sorted_by_self_time(self):
        rows = self_time_rows(_tree())
        assert [r["name"] for r in rows] == ["inner", "outer"]
        assert sum(r["self_pct"] for r in rows) == pytest.approx(100.0)

    def test_table_mentions_truncation(self):
        roots = [Span.from_dict({
            "name": f"s{i}", "attrs": {}, "start_wall": 100.0 + i,
            "duration_s": 0.1, "children": [],
        }) for i in range(20)]
        table = self_time_table(roots, top_n=5)
        assert "top 5 of 20" in table

    def test_empty_tree_renders(self):
        assert "span" in self_time_table([])


class TestRunProfile:
    def test_profile_fig2_end_to_end(self, tmp_path):
        path = tmp_path / "fig2.trace.json"
        profile = run_profile("fig2", StudyConfig(),
                              trace_path=str(path))
        # Valid trace_event JSON with complete events.
        doc = json.loads(path.read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete
        assert all("ts" in e and "dur" in e for e in complete)
        # Attribution and resources made it into the result.
        assert "profile" in profile.attribution
        assert profile.resources["peak_rss_bytes"] > 0
        assert "cpu_utilization" in profile.resources
        # The ledger record carries the peaks.
        record = profile.record
        assert record.kind == "profile"
        assert record.resources == profile.resources
        assert record.wall_s > 0

    def test_jsonl_format(self, tmp_path):
        path = tmp_path / "fig2.trace.jsonl"
        profile = run_profile("fig2", StudyConfig(), trace_path=str(path))
        lines = [ln for ln in path.read_text().splitlines() if ln]
        assert len(lines) == profile.trace_events
        assert all(isinstance(json.loads(ln), dict) for ln in lines)

    def test_jobs_worker_spans_descend_from_profile_root(self, tmp_path):
        # Under --jobs the merged worker spans are the per-item view:
        # one cells.characterize per cell per corner, none orphaned.
        from repro.cells.catalog import full_catalog

        path = tmp_path / "fig5.trace.jsonl"
        run_profile("fig5", StudyConfig(fast=True, jobs=2),
                    trace_path=str(path))
        spans = [json.loads(ln) for ln in path.read_text().splitlines()]
        by_id = {s["id"]: s for s in spans}

        def root_of(span):
            while span["parent"] is not None:
                span = by_id[span["parent"]]
            return span

        assert [s["name"] for s in spans if s["parent"] is None] == [
            "profile"]
        cells = [s for s in spans if s["name"] == "cells.characterize"]
        assert len(cells) == 2 * len(full_catalog())
        assert all(root_of(s)["name"] == "profile" for s in cells)


class TestProfileCli:
    def test_profile_command(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "cli.trace.json"
        assert main(["profile", "fig2", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Self-time attribution" in out
        assert "peak RSS" in out
        json.loads(path.read_text())

    def test_profile_metrics_prints_summary(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "cli.trace.json"
        assert main(["profile", "fig2", "--trace", str(path),
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics summary" in out
        assert "observe.peak_rss_bytes" in out

    def test_profile_unknown_experiment(self, tmp_path):
        from repro.__main__ import main

        assert main(["profile", "fig99"]) == 2

    def test_profile_needs_exactly_one_target(self):
        from repro.__main__ import main

        assert main(["profile"]) == 2

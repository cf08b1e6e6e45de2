"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import argparse
import json

from repro import telemetry
from repro.__main__ import _expand, build_parser, main
from repro.experiments import registry

BUILTINS = {"stats", "run", "report", "compare", "assault", "profile",
            "serve", "top"}


def _commands() -> set[str]:
    """The generated parser's subcommand names."""
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return set(action.choices)


class TestCLI:
    def test_fig2_prints_report(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2(a)" in out

    def test_table1_prints_report(self, capsys):
        assert main(["table1", "--shots", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "MHz" in out

    def test_unknown_command_rejected(self):
        assert main(["fig99"]) == 2

    def test_all_commands_listed(self):
        commands = _commands()
        assert "all" in commands
        assert {"table1", "table2", "fig6", "fig7"} <= commands

    def test_commands_generated_from_registry(self):
        commands = _commands()
        # Every registered experiment, every group, ``all`` and every
        # builtin is a command -- and nothing else is.
        assert set(registry.names()) <= commands
        assert set(registry.groups()) <= commands
        assert {"stats", "all"} <= commands
        assert BUILTINS <= commands
        assert commands == (set(registry.names()) | set(registry.groups())
                            | {"all"} | BUILTINS)

    def test_all_expands_through_registry(self):
        specs = _expand("all")
        assert [s.name for s in specs] == [
            s.name for s in registry.all_specs() if s.in_all
        ]
        # The heavy sweep is reachable but excluded from ``all``.
        assert "ext_soc_sweep" not in {s.name for s in specs}
        assert _expand("ext_soc_sweep")[0].name == "ext_soc_sweep"

    def test_group_expansion(self):
        specs = _expand("extensions")
        assert len(specs) > 1
        assert all(s.group == "extensions" for s in specs)

    def test_single_command_expansion(self):
        (spec,) = _expand("table1")
        assert spec.name == "table1"

    def test_jobs_flag_accepted(self, capsys):
        assert main(["fig5", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out


class TestFlagsPerCommand:
    def test_flag_of_another_command_rejected(self, capsys):
        assert main(["report", "--host", "x"]) == 2
        assert "unrecognized arguments: --host" in capsys.readouterr().err

    def test_invalid_study_config_exits_two(self, capsys):
        assert main(["fig2", "--shots", "0"]) == 2
        out = capsys.readouterr().out
        errors = [ln for ln in out.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "shots" in errors[0]
        assert "Traceback" not in out

    def test_top_rejects_nonpositive_interval_and_count(self, capsys):
        assert main(["top", "h:1", "--interval", "-1"]) == 2
        assert main(["top", "h:1", "--interval", "0"]) == 2
        assert main(["top", "h:1", "--count", "0"]) == 2
        assert "must be > 0" in capsys.readouterr().err


class TestTraceFormatFromFileName:
    def teardown_method(self):
        telemetry.disable()
        telemetry.reset()

    def test_json_name_writes_chrome_document(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert main(["fig2", "--trace", str(path), "--no-ledger"]) == 0
        doc = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_jsonl_name_writes_one_span_per_line(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["fig2", "--trace", str(path), "--no-ledger"]) == 0
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert records
        assert all({"id", "parent", "name"} <= set(r) for r in records)

"""The experiment registry: completeness, ordering, CLI integration."""

from __future__ import annotations

import argparse

import pytest

from repro.__main__ import _expand, build_parser
from repro.experiments import registry
from repro.experiments.registry import ExperimentSpec, experiment


class TestRegistryContents:
    def test_every_paper_artifact_registered(self):
        names = set(registry.names())
        assert {"fig2", "fig3", "fig5", "table1", "fig6", "table2",
                "fig7", "ablations"} <= names

    def test_every_extension_registered(self):
        names = set(registry.names())
        assert {"ext_thermal", "ext_fpga", "ext_qec", "ext_vdd",
                "ext_vqe", "ext_mismatch", "ext_seu",
                "ext_soc_sweep"} <= names

    def test_all_specs_ordered(self):
        orders = [s.order for s in registry.all_specs()]
        assert orders == sorted(orders)

    def test_extensions_group(self):
        members = registry.groups()["extensions"]
        assert {"ext_thermal", "ext_fpga", "ext_qec", "ext_vdd",
                "ext_vqe", "ext_mismatch"} == {s.name for s in members}

    def test_specs_have_titles_and_callables(self):
        for spec in registry.all_specs():
            assert spec.title
            assert callable(spec.run)
            assert callable(spec.report)

    def test_get_unknown_raises_with_known_names(self):
        with pytest.raises(KeyError, match="fig2"):
            registry.get("nonsense")

    def test_duplicate_registration_rejected(self):
        spec = registry.get("fig2")
        with pytest.raises(ValueError, match="already registered"):
            registry.register(spec)

    def test_decorator_registers_and_returns_fn(self):
        try:
            @experiment("_test_exp", "a test", report=str, in_all=False)
            def _run(study, config):
                return 1

            assert registry.get("_test_exp").run is _run
        finally:
            registry._REGISTRY.pop("_test_exp", None)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    """The generated parser's subcommand -> subparser map."""
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestCLIIntegration:
    def test_every_cli_command_resolves(self):
        groups = registry.groups()
        for command, sub in _subcommands().items():
            target = sub.get_default("experiment")
            # Builtins dispatch on their own, not through the registry.
            if target is None:
                continue
            assert target == command
            specs = _expand(command)
            assert specs, command
            for spec in specs:
                assert isinstance(spec, ExperimentSpec)
                assert registry.get(spec.name) is spec
            if command in groups:
                assert [s.name for s in specs] == [
                    s.name for s in groups[command]]

    def test_all_covers_every_in_all_spec(self):
        assert [s.name for s in _expand("all")] == [
            s.name for s in registry.all_specs() if s.in_all]


class TestSpecExecution:
    def test_run_result_passes_none_when_study_not_needed(self):
        captured = {}

        def run(study, config):
            captured["study"] = study
            return {"x": 1}

        spec = ExperimentSpec(name="_t", title="t", run=run,
                              report=lambda r: f"x={r['x']}",
                              needs_study=False)
        assert spec.report(spec.run_result("STUDY", None)) == "x=1"
        assert captured["study"] is None

    def test_run_result_forwards_study(self):
        spec = ExperimentSpec(name="_t", title="t",
                              run=lambda study, config: study,
                              report=lambda r: r)
        assert spec.report(spec.run_result("STUDY", None)) == "STUDY"

    def test_run_recorded_returns_text_and_record(self):
        spec = ExperimentSpec(name="_t", title="t",
                              run=lambda study, config: {"x": 2},
                              report=lambda r: f"x={r['x']}",
                              needs_study=False)
        text, record = spec.run_recorded("STUDY", None, kind="profile")
        assert text == "x=2"
        assert record.experiment == "_t"
        assert record.kind == "profile"
        assert record.start_ts.endswith("Z")
        assert record.wall_s >= 0
        assert record.config_digest is None
        assert record.resources["peak_rss_bytes"] > 0
        # No declared fidelity spec: no metrics, no verdict.
        assert record.metrics == {}
        assert record.fidelity is None
        # needs_study=False: the snapshot carries no stage cache.
        assert "stage_cache" not in record.telemetry

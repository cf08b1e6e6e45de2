"""Resilient library build: retry ladder, quarantine, coverage report."""

from __future__ import annotations

import pytest

from repro.cells import (
    CellCharacterizer,
    CharacterizationConfig,
    TechModels,
    build_library,
    cell_by_name,
)
from repro.device import golden_nfet, golden_pfet
from repro.errors import CharacterizationError, SolverError
from repro.reliability import CoverageReport


@pytest.fixture(scope="module")
def models() -> TechModels:
    return TechModels(golden_nfet(), golden_pfet())


SMALL_CATALOG = ["INV_X1", "NAND2_X1", "NOR2_X1"]


def _catalog():
    return [cell_by_name(n) for n in SMALL_CATALOG]


def _fail_on(monkeypatch, bad_names, exc=None):
    """Make characterize() blow up for the named cells."""
    exc = exc or RuntimeError("synthetic characterization failure")
    real = CellCharacterizer.characterize

    def flaky(self, cell):
        if cell.name in bad_names:
            raise exc
        return real(self, cell)

    monkeypatch.setattr(CellCharacterizer, "characterize", flaky)


class TestQuarantine:
    def test_bad_cell_is_quarantined_not_fatal(self, models, monkeypatch):
        _fail_on(monkeypatch, {"NAND2_X1"})
        lib = build_library(
            models, CharacterizationConfig(), catalog=_catalog(),
        )
        assert "NAND2_X1" not in lib
        assert "INV_X1" in lib and "NOR2_X1" in lib
        report = lib.coverage
        assert isinstance(report, CoverageReport)
        assert "NAND2_X1" in report.quarantined
        assert report.coverage == pytest.approx(2 / 3)
        assert not report.complete

    def test_require_raises_below_floor(self, models, monkeypatch):
        _fail_on(monkeypatch, {"NAND2_X1"})
        lib = build_library(
            models, CharacterizationConfig(), catalog=_catalog(),
        )
        lib.coverage.require(0.5)  # tolerates the hole
        with pytest.raises(CharacterizationError) as err:
            lib.coverage.require(1.0)
        assert "NAND2_X1" in str(err.value)

    def test_strict_mode_fails_fast_with_cell_attr(self, models,
                                                   monkeypatch):
        # Fail-fast callers require full coverage; the error names the
        # first quarantined cell.
        _fail_on(monkeypatch, {"NOR2_X1"})
        lib = build_library(
            models, CharacterizationConfig(), catalog=_catalog(),
        )
        with pytest.raises(CharacterizationError) as err:
            lib.coverage.require(1.0)
        assert err.value.cell == "NOR2_X1"

    def test_clean_build_reports_full_coverage(self, models):
        lib = build_library(
            models, CharacterizationConfig(), catalog=_catalog(),
        )
        report = lib.coverage
        assert report.complete
        assert report.coverage == 1.0
        assert sorted(report.clean) == sorted(SMALL_CATALOG)
        report.require(1.0)  # must not raise
        assert "coverage" in report.summary()


class TestSpiceEngineFallback:
    def test_spice_failure_falls_back_to_analytic(self, models,
                                                  monkeypatch):
        real = CellCharacterizer.characterize

        def flaky(self, cell):
            if self.config.engine == "spice":
                raise SolverError("synthetic spice meltdown")
            return real(self, cell)

        monkeypatch.setattr(CellCharacterizer, "characterize", flaky)
        lib = build_library(
            models, CharacterizationConfig(engine="spice"),
            catalog=[cell_by_name("INV_X1")],
        )
        assert "INV_X1" in lib
        report = lib.coverage
        assert report.complete
        assert "INV_X1" in report.degraded
        assert "analytic-engine fallback" in report.degraded["INV_X1"]
        assert any("analytic-engine fallback" in n
                   for n in lib["INV_X1"].notes)


class TestSolvePointResilient:
    def _characterizer(self, models):
        return CellCharacterizer(models, CharacterizationConfig())

    def test_retry_at_half_step_is_noted(self, models, monkeypatch):
        import repro.spice as spice_mod

        real = spice_mod.transient
        calls = []

        def flaky(circuit, t_stop, dt, **kw):
            calls.append(dt)
            if len(calls) == 1:
                raise SolverError("first attempt diverged")
            return real(circuit, t_stop, dt, **kw)

        monkeypatch.setattr(spice_mod, "transient", flaky)
        ch = self._characterizer(models)
        cell = cell_by_name("INV_X1")
        from repro.spice import DC

        circuit = ch.build_cell_circuit(cell, 1e-15, {"A": DC(0.0)})
        notes: list[str] = []
        res = ch._solve_point_resilient(
            cell, "A", circuit, 1e-11, 1e-13, notes
        )
        assert res is not None
        assert calls[1] == pytest.approx(calls[0] / 2)
        assert len(notes) == 1 and "retried at dt/2" in notes[0]

    def test_double_failure_returns_none_for_analytic_fallback(
        self, models, monkeypatch
    ):
        import repro.spice as spice_mod

        def always_fails(circuit, t_stop, dt, **kw):
            raise SolverError("unconvergeable")

        monkeypatch.setattr(spice_mod, "transient", always_fails)
        ch = self._characterizer(models)
        cell = cell_by_name("INV_X1")
        from repro.spice import DC

        circuit = ch.build_cell_circuit(cell, 1e-15, {"A": DC(0.0)})
        notes: list[str] = []
        res = ch._solve_point_resilient(
            cell, "A", circuit, 1e-11, 1e-13, notes
        )
        assert res is None
        assert len(notes) == 1 and "analytic fallback" in notes[0]

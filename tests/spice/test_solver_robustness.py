"""Solver hardening: escalation ladder, budgets, exact time grids."""

from __future__ import annotations

import numpy as np
import pytest

import repro.spice.solver as solver_mod
from repro.errors import ReproError, SolverBudgetError, SolverError
from repro.device.finfet import FinFET
from repro.device.params import default_nfet, default_pfet
from repro.spice import (
    DC,
    Circuit,
    ConvergenceError,
    SolverBudget,
    dc_operating_point,
    ramp,
    transient,
    transient_grid,
)
from repro.spice.mna import GMIN_DEFAULT


_NMOS = FinFET(default_nfet(2))
_PMOS = FinFET(default_pfet(3))


def _inverter(load: float) -> Circuit:
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", "0", DC(0.7))
    c.add_vsource("vin", "in", "0", ramp(10e-12, 10e-12, 0.0, 0.7))
    c.add_finfet("mp", "out", "in", "vdd", _PMOS)
    c.add_finfet("mn", "out", "in", "0", _NMOS)
    c.add_capacitor("cl", "out", "0", load)
    return c


def _rc_circuit(vdd: float = 0.7) -> Circuit:
    c = Circuit("rc")
    c.add_vsource("vin", "in", "0", DC(vdd))
    c.add_resistor("r1", "in", "out", 1e3)
    c.add_capacitor("c1", "out", "0", 1e-12)
    return c


class TestErrorTaxonomy:
    def test_convergence_error_is_solver_error(self):
        assert issubclass(ConvergenceError, SolverError)
        assert issubclass(SolverError, ReproError)
        assert issubclass(ReproError, RuntimeError)  # legacy handlers

    def test_budget_error_is_solver_error(self):
        assert issubclass(SolverBudgetError, SolverError)


class TestSingularAndPathological:
    def test_singular_matrix_reports_full_escalation(self):
        # Two ideal sources forcing different voltages on the same node:
        # the MNA matrix is structurally singular at every gmin and every
        # source scale.
        c = Circuit("conflict")
        c.add_vsource("v1", "a", "0", DC(0.5))
        c.add_vsource("v2", "a", "0", DC(0.3))
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(c)
        msg = str(err.value)
        assert "gmin ladder" in msg
        assert "source stepping" in msg

    def test_singular_transient_also_raises(self):
        c = Circuit("conflict")
        c.add_vsource("v1", "a", "0", DC(0.5))
        c.add_vsource("v2", "a", "0", DC(0.3))
        with pytest.raises(ConvergenceError):
            transient(c, 1e-9, 1e-10, record=["a"])


class TestEscalationLadder:
    def test_midladder_failure_falls_through_to_source_stepping(
        self, monkeypatch
    ):
        """A gmin-ladder failure must not escape as a bare error: the
        solver must try source stepping and succeed if it can."""
        calls = []
        state = {"source_mode": False}
        real = solver_mod._newton_solve

        def flaky(system, x, sources, gmin, cap_companion, alive,
                  source_scale=1.0, tracker=None):
            calls.append((gmin, source_scale))
            if source_scale < 1.0:
                state["source_mode"] = True  # continuation has begun
            if not state["source_mode"]:
                return 1, np.zeros_like(alive)  # forced failure
            return real(system, x, sources, gmin, cap_companion, alive,
                        source_scale=source_scale, tracker=tracker)

        monkeypatch.setattr(solver_mod, "_newton_solve", flaky)
        op = dc_operating_point(_rc_circuit())
        assert op["in"] == pytest.approx(0.7, abs=1e-6)
        # Plain attempt, then the gmin ladder broke mid-way, then the
        # source ladder ran to scale 1.0.
        assert calls[0] == (GMIN_DEFAULT, 1.0)
        assert any(scale < 1.0 for _gmin, scale in calls)
        assert calls[-1] == (GMIN_DEFAULT, 1.0)

    def test_source_stepping_failure_keeps_ladder_context(
        self, monkeypatch
    ):
        def always_fails(system, x, sources, gmin, cap_companion, alive,
                         source_scale=1.0, tracker=None):
            return 1, np.zeros_like(alive)

        monkeypatch.setattr(solver_mod, "_newton_solve", always_fails)
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(_rc_circuit())
        msg = str(err.value)
        assert "plain NR failed" in msg
        assert "gmin ladder failed at gmin=0.001" in msg
        assert "source stepping failed" in msg

    def test_masked_ladder_recovers_one_replica_in_batch(self, monkeypatch):
        """One replica of a batch fails plain NR at DC: it alone walks
        the gmin ladder inside the batch and recovers, while the frozen
        bystanders stay bit-identical to their solo solves."""
        circuits = [_inverter(load) for load in (1e-15, 2e-15, 4e-15)]
        t_stop, dt = 40e-12, 0.5e-12
        solo = [transient(c, t_stop, dt) for c in circuits]
        real = solver_mod._newton_solve
        calls = []

        def flaky(system, x, sources, gmin, cap_companion, alive,
                  source_scale=1.0, tracker=None):
            its, ok = real(system, x, sources, gmin, cap_companion, alive,
                           source_scale=source_scale, tracker=tracker)
            calls.append((gmin, source_scale, alive.copy()))
            if len(calls) == 1:  # the batch's plain-NR DC solve
                assert cap_companion is None and gmin == GMIN_DEFAULT
                x[1] = 5.0  # a diverged attempt the ladder must discard
                ok = ok.copy()
                ok[1] = False
            return its, ok

        monkeypatch.setattr(solver_mod, "_newton_solve", flaky)
        results = transient_grid(circuits, t_stop, dt)
        assert all(r is not None for r in results)
        # Only the failed replica climbed the ladder, rung by rung.
        rungs = calls[1:1 + len(solver_mod._GMIN_LADDER)]
        assert [(g, s) for g, s, _ in rungs] == [
            (g, 1.0) for g in solver_mod._GMIN_LADDER]
        for _, _, alive in rungs:
            assert alive.tolist() == [False, True, False]
        stats = results[0].stats
        assert stats.gmin_steps == len(solver_mod._GMIN_LADDER)
        assert stats.source_steps == 0
        for r in (0, 2):
            for node, wave in solo[r].voltages.items():
                assert np.array_equal(results[r].voltages[node], wave)
        for node, wave in solo[1].voltages.items():
            assert np.abs(results[1].voltages[node] - wave).max() < 1e-6


class TestSolverBudget:
    def test_iteration_budget_exhaustion(self):
        with pytest.raises(SolverBudgetError):
            dc_operating_point(
                _rc_circuit(), budget=SolverBudget(max_iterations=1)
            )

    def test_wallclock_budget_exhaustion(self):
        with pytest.raises(SolverBudgetError):
            transient(
                _rc_circuit(), 1e-9, 1e-12,
                budget=SolverBudget(max_seconds=0.0),
            )

    def test_generous_budget_does_not_interfere(self):
        op = dc_operating_point(
            _rc_circuit(),
            budget=SolverBudget(max_iterations=10_000, max_seconds=60.0),
        )
        assert op["out"] == pytest.approx(0.7, abs=1e-6)


class TestTimeGrid:
    def test_non_multiple_t_stop_is_simulated_exactly(self):
        # 1 ns / 0.3 ns is not an integer: the old grid stopped at
        # 0.9 ns.  The step must snap down, never up.
        res = transient(_rc_circuit(), 1e-9, 0.3e-9, record=["out"])
        assert res.time[-1] == pytest.approx(1e-9, rel=1e-12)
        assert res.dt_effective <= 0.3e-9 + 1e-24
        assert len(res.time) == 5  # ceil(1/0.3) = 4 steps
        steps = np.diff(res.time)
        assert np.allclose(steps, res.dt_effective)

    def test_exact_multiple_keeps_requested_step(self):
        res = transient(_rc_circuit(), 1e-9, 0.25e-9, record=["out"])
        assert res.dt_effective == pytest.approx(0.25e-9, rel=1e-12)
        assert len(res.time) == 5
        assert res.time[-1] == pytest.approx(1e-9, rel=1e-12)

    def test_tiny_t_stop_still_takes_a_step(self):
        res = transient(_rc_circuit(), 1e-13, 1e-12, record=["out"])
        assert len(res.time) == 2
        assert res.time[-1] == pytest.approx(1e-13, rel=1e-12)

    def test_rc_charge_physics_unchanged(self):
        from repro.spice import ramp

        # Step the input after t=0; tau = 1 ns, so after 7+ tau the
        # output has charged to ~vdd regardless of the grid snap.
        c = Circuit("rc_step")
        c.add_vsource("vin", "in", "0", ramp(0.1e-9, 0.1e-9, 0.0, 0.7))
        c.add_resistor("r1", "in", "out", 1e3)
        c.add_capacitor("c1", "out", "0", 1e-12)
        res = transient(c, 8.05e-9, 0.03e-9, record=["out"])
        v = res.voltages["out"]
        assert v[0] == pytest.approx(0.0, abs=1e-6)
        assert v[-1] == pytest.approx(0.7, abs=5e-3)
        assert res.time[-1] == pytest.approx(8.05e-9, rel=1e-12)

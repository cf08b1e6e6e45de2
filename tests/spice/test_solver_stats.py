"""Always-on solver accounting: result stats and budget charges."""

from __future__ import annotations

from repro import telemetry
from repro.spice import (
    DC,
    Circuit,
    SolverBudget,
    dc_operating_point,
    transient,
)


def _rc_circuit() -> Circuit:
    c = Circuit("rc", temperature_k=300.0)
    c.add_vsource("v1", "in", "0", DC(0.7))
    c.add_resistor("r1", "in", "out", 1e3)
    c.add_capacitor("c1", "out", "0", 1e-15)
    return c


class TestResultStats:
    def test_dc_stats_populated(self):
        op = dc_operating_point(_rc_circuit())
        assert op.stats.newton_iterations == op.iterations > 0
        assert op.stats.timesteps == 0
        assert op.stats.dt_effective == 0.0

    def test_transient_stats_populated(self):
        result = transient(_rc_circuit(), 1e-11, 1e-12)
        assert result.stats.timesteps == 10
        assert result.stats.dt_effective == result.dt_effective > 0.0
        # DC warm-up plus one converged NR pass per step.
        assert result.stats.newton_iterations >= 10

    def test_easy_circuit_needs_no_escalation(self):
        result = transient(_rc_circuit(), 1e-11, 1e-12)
        assert result.stats.gmin_steps == 0
        assert result.stats.source_steps == 0

    def test_jacobian_reuses_counted_for_compiled_kernel(self):
        # A linear circuit assembles once per (gmin, scale, transient?)
        # key; every later iteration solves on the cached Jacobian.
        result = transient(_rc_circuit(), 1e-11, 1e-12)
        assert result.stats.jacobian_reuses > 0


class TestBudgetObservation:
    def test_budget_charges_counted(self):
        budget = SolverBudget(max_iterations=10_000)
        result = transient(_rc_circuit(), 1e-11, 1e-12, budget=budget)
        # One charge per budget consultation: DC plus each timestep.
        assert result.stats.budget_charges >= result.stats.timesteps


class TestSolverTelemetry:
    def test_enabled_transient_emits_span_and_counters(self):
        telemetry.enable()
        telemetry.reset()
        try:
            transient(_rc_circuit(), 1e-11, 1e-12)
            names = [s.name for s in telemetry.tracer.all_spans()]
            assert "spice.transient" in names
            summary = telemetry.metrics_summary()
            assert summary["solver.transient_solves"] == 1
            assert summary["solver.newton_iterations"] > 0
        finally:
            telemetry.disable()
            telemetry.reset()

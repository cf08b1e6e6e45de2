"""Batched DC: every replica equals its own single-circuit solve (``==``).

``dc_operating_point`` on a list of circuits tiles them into one
``MNASystem`` and runs one masked-Newton solve for the batch.  The
single-circuit call is the oracle: each replica's node voltages and
source currents must be bit-equal to it, whatever models and source
values the replicas carry.  A replica that fails the whole escalation
ladder raises ``ConvergenceError`` naming it; temperature and topology
mismatches are still rejected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.device.finfet import FinFET
from repro.device.params import default_nfet, default_pfet
from repro.device.variability import MismatchModel
from repro.errors import ConfigError, NetlistError, SolverBudgetError
from repro.spice import (
    DC,
    PWL,
    Circuit,
    ConvergenceError,
    OperatingPointBatch,
    SolverBudget,
    dc_operating_point,
)

VDD = 0.7


def _inverter(nmos: FinFET, pmos: FinFET, vin, vdd: float = VDD,
              temp: float = 300.0, title: str = "inv") -> Circuit:
    c = Circuit(title, temperature_k=temp)
    c.add_vsource("vdd", "vdd", "0", DC(vdd))
    c.add_vsource("vin", "in", "0", vin if not np.isscalar(vin)
                  else DC(float(vin)))
    c.add_finfet("mp", "out", "in", "vdd", pmos, with_parasitics=False)
    c.add_finfet("mn", "out", "in", "0", nmos, with_parasitics=False)
    return c


def _assert_replicas_equal_solo(circuits: list[Circuit], t: float = 0.0):
    batch = dc_operating_point(circuits, t=t)
    assert isinstance(batch, OperatingPointBatch)
    for r, circuit in enumerate(circuits):
        solo = dc_operating_point(circuit, t=t)
        one = batch.point(r)
        assert one.voltages == solo.voltages, r
        assert one.source_currents == solo.source_currents, r
        for node, v in solo.voltages.items():
            assert batch[node][r] == v
    return batch


@pytest.mark.parametrize("temp", [300.0, 10.0])
def test_mismatched_population_equals_solo_solves(temp):
    rng = np.random.default_rng(int(temp))
    mm = MismatchModel()
    n = 12
    nfets = mm.sample(default_nfet(2), temp, n, rng)
    pfets = mm.sample(default_pfet(3), temp, n, rng)
    vins = rng.uniform(0.0, VDD, n)
    circuits = [
        _inverter(FinFET(nf), FinFET(pf), v, temp=temp)
        for nf, pf, v in zip(nfets, pfets, vins)
    ]
    batch = _assert_replicas_equal_solo(circuits)
    assert batch["out"].shape == (n,)
    assert batch.stats.newton_iterations > 0


def test_different_models_and_source_values():
    """Replicas differ in fin counts, model objects and both sources;
    one replica shares its model objects with another."""
    shared_n, shared_p = FinFET(default_nfet(2)), FinFET(default_pfet(3))
    circuits = [
        _inverter(shared_n, shared_p, 0.2, vdd=0.7),
        _inverter(FinFET(default_nfet(1)), FinFET(default_pfet(4)), 0.35,
                  vdd=0.8),
        _inverter(shared_n, shared_p, 0.5, vdd=0.6),
        _inverter(FinFET(default_nfet(3)), FinFET(default_pfet(1)), 0.0,
                  vdd=0.75),
    ]
    _assert_replicas_equal_solo(circuits)


def test_single_circuit_keeps_its_result_type():
    c = _inverter(FinFET(default_nfet(2)), FinFET(default_pfet(3)), 0.3)
    op = dc_operating_point(c)
    batch = dc_operating_point([c])
    assert op.voltages == batch.point(0).voltages
    assert isinstance(op["out"], float)
    assert op.iterations == batch.stats.newton_iterations


def test_non_finite_source_names_its_replica():
    """A source that goes non-finite at the solve time fails the whole
    ladder for its replica only; the batch raises naming it."""
    nmos, pmos = FinFET(default_nfet(2)), FinFET(default_pfet(3))
    poisoned = PWL((0.0, 1e-12, 2e-12), (0.0, 0.5, float("nan")))
    circuits = [_inverter(nmos, pmos, v) for v in (0.1, 0.3)]
    circuits.append(_inverter(nmos, pmos, poisoned, title="poisoned"))
    circuits.append(_inverter(nmos, pmos, 0.6))
    with pytest.raises(ConvergenceError) as err:
        dc_operating_point(circuits, t=3e-12)
    msg = str(err.value)
    assert "replica 2 of 4" in msg and "'poisoned'" in msg
    assert "source stepping failed" in msg
    with pytest.raises(ConvergenceError):
        dc_operating_point(circuits[2], t=3e-12)
    # The healthy replicas alone still solve, equal to their solo solves.
    _assert_replicas_equal_solo([circuits[k] for k in (0, 1, 3)], t=3e-12)


def test_budget_bounds_the_whole_batch():
    nmos, pmos = FinFET(default_nfet(2)), FinFET(default_pfet(3))
    circuits = [_inverter(nmos, pmos, v) for v in (0.1, 0.4)]
    with pytest.raises(SolverBudgetError):
        dc_operating_point(circuits, budget=SolverBudget(max_iterations=1))


def test_empty_batch_rejected():
    with pytest.raises(ConfigError):
        dc_operating_point([])


def test_temperature_mismatch_rejected():
    nmos, pmos = FinFET(default_nfet(2)), FinFET(default_pfet(3))
    circuits = [_inverter(nmos, pmos, 0.2),
                _inverter(nmos, pmos, 0.2, temp=10.0)]
    with pytest.raises(NetlistError, match="temperature"):
        dc_operating_point(circuits)


def test_topology_mismatch_rejected():
    nmos, pmos = FinFET(default_nfet(2)), FinFET(default_pfet(3))
    other = _inverter(nmos, pmos, 0.2)
    other.add_resistor("rload", "out", "0", 1e6)
    with pytest.raises(NetlistError, match="structure"):
        dc_operating_point([_inverter(nmos, pmos, 0.2), other])
    swapped = Circuit("swapped")
    swapped.add_vsource("vdd", "vdd", "0", DC(VDD))
    swapped.add_vsource("vin", "in", "0", DC(0.2))
    swapped.add_finfet("mn", "out", "in", "0", nmos, with_parasitics=False)
    swapped.add_finfet("mp", "out", "in", "vdd", pmos,
                       with_parasitics=False)
    with pytest.raises(NetlistError, match="structure"):
        dc_operating_point([_inverter(nmos, pmos, 0.2), swapped])

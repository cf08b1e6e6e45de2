"""The mesh-evaluated analytic characterizer equals the per-point oracle.

``CellCharacterizer`` evaluates each arc once per input edge on the
whole slew x load mesh; ``tests/cells/oracle.py`` walks the stage DAG
one table point at a time.  Every comparison here is exact: the same
table bytes and senses on every combinational arc of the full catalog
at both Table 1 corners, the same SPICE grid plan, and the same Liberty
text as pinned digests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cells import (
    CellCharacterizer,
    Stage,
    StandardCell,
    CharacterizationConfig,
    build_library,
    cell_by_name,
    full_catalog,
    liberty,
)
from repro.cells.stacks import device, series
from tests.cells import oracle

TABLES = ("cell_rise", "cell_fall", "rise_transition", "fall_transition")

# First 16 hex digits of sha256(liberty.dumps(library)) for the default
# full-catalog build with the golden models.
LIBERTY_DIGESTS = {300.0: "399cec56835a4db5", 10.0: "e1f35e312d78ab71"}


@pytest.mark.parametrize("temperature", [300.0, 10.0])
def test_every_arc_equals_oracle(models, temperature):
    ch = CellCharacterizer(
        models, CharacterizationConfig(temperature_k=temperature))
    arcs = 0
    for cell in full_catalog():
        if cell.is_sequential:
            continue
        for pin in cell.inputs:
            arc = ch._characterize_arc_analytic(cell, pin)
            ref = oracle.characterize_arc(ch, cell, pin)
            where = f"{cell.name}/{pin}"
            assert arc.related_pin == ref.related_pin
            assert arc.sense == ref.sense, where
            for key in TABLES:
                got, want = getattr(arc, key), getattr(ref, key)
                assert np.array_equal(got.values, want.values), (where, key)
                assert np.array_equal(got.slews, want.slews)
                assert np.array_equal(got.loads, want.loads)
            arcs += 1
    assert arcs == 592


def _assert_arcs_equal(ch, cell):
    for pin in cell.inputs:
        arc = ch._characterize_arc_analytic(cell, pin)
        ref = oracle.characterize_arc(ch, cell, pin)
        assert arc.sense == ref.sense
        for key in TABLES:
            assert np.array_equal(getattr(arc, key).values,
                                  getattr(ref, key).values), (pin, key)


@pytest.mark.parametrize("temperature", [300.0, 10.0])
def test_reconvergent_loser_keeps_winner_slew(models, temperature):
    """Two paths of one parity meet at Y; the later-arriving one (via the
    two inverters) sorts first among the stage inputs, so the early
    direct path is the second candidate and must not donate its slew."""
    cell = StandardCell(
        name="RECONV_X1", inputs=("P",), output="Y",
        stages=(Stage("M", device("P")), Stage("N", device("M")),
                Stage("Y", series(device("N"), device("P")))),
    )
    ch = CellCharacterizer(
        models, CharacterizationConfig(temperature_k=temperature))
    _assert_arcs_equal(ch, cell)


def _plan(batches):
    return [
        (b.t_stop, b.dt, [(p.i, p.j, p.in_tr, p.out_tr, p.slew, p.load,
                           p.est_d, p.est_s, p.t_stop, p.dt)
                          for p in b.points])
        for b in batches
    ]


@pytest.mark.parametrize("temperature", [300.0, 10.0])
@pytest.mark.parametrize("name", ["INV_X1", "NAND2_X1", "XOR2_X1"])
def test_grid_plan_equals_oracle(models, name, temperature):
    ch = CellCharacterizer(
        models, CharacterizationConfig(temperature_k=temperature))
    cell = cell_by_name(name)
    for pin in cell.inputs:
        plan = _plan(ch.plan_grid_batches(cell, pin))
        assert plan == _plan(oracle.plan_grid_batches(ch, cell, pin))
        assert sum(len(points) for _, _, points in plan) == 2 * 7 * 7


@pytest.mark.parametrize("temperature", [300.0, 10.0])
def test_liberty_digest_pinned(models, temperature):
    lib = build_library(
        models, CharacterizationConfig(temperature_k=temperature),
        jobs=1, cache=False,
    )
    digest = hashlib.sha256(liberty.dumps(lib).encode()).hexdigest()
    assert digest[:16] == LIBERTY_DIGESTS[temperature]

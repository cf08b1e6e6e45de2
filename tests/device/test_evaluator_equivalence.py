"""One FinFET evaluator equals the two-evaluator oracle byte for byte.

:class:`repro.device.finfet.FinFET` evaluates a single parameter record
and the per-device table of :func:`~repro.device.finfet.stack_models`
with the same code, polarity being a sign.  ``tests/device/oracle.py``
keeps the design it replaced (a polarity branch, a per-model
``(id(params), T)`` cache, a gathered stack); every current here must
have the same bytes under both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.device import default_nfet, default_pfet
from repro.device.calibration import DEFAULT_BOUNDS
from repro.device.finfet import (
    TABLE_ROW,
    FinFET,
    parameter_table,
    patch_table,
    stack_models,
)
from tests.device.oracle import OracleFinFET, oracle_stack_models

TEMPERATURES = (300.0, 77.0, 10.0, 0.5)
INITIAL = {"n": default_nfet, "p": default_pfet}


def _random_params(rng: np.random.Generator, polarity: str):
    """A record with every calibrated field drawn inside its bounds."""
    values = {
        name: b.decode(rng.uniform(b.encoded_lo, b.encoded_hi))
        for name, b in DEFAULT_BOUNDS.items()
    }
    return INITIAL[polarity](int(rng.integers(1, 5))).copy(**values)


def _same(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _biases(rng: np.random.Generator, sign: float):
    """Scalar, 0-d and broadcast bias pairs, some with negative vds."""
    return [
        (sign * 0.7, sign * 0.7),
        (sign * 0.35, -sign * 0.2),
        (0.0, 0.0),
        (np.asarray(sign * 0.5), np.asarray(sign * 0.05)),
        (sign * rng.uniform(-0.1, 0.8, (7, 1)), rng.uniform(-0.8, 0.8, (1, 5))),
        (rng.uniform(-0.8, 0.8, 9), sign * 0.6),
    ]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("polarity", ["n", "p"])
def test_single_device_currents(polarity, seed):
    rng = np.random.default_rng(100 * seed + ord(polarity))
    params = _random_params(rng, polarity)
    fet, ref = FinFET(params), OracleFinFET(params)
    for t in TEMPERATURES:
        for vgs, vds in _biases(rng, params.sign):
            _same(fet.ids(vgs, vds, t), ref.ids(vgs, vds, t))
        for name in ("ion", "ioff", "effective_current"):
            _same(getattr(fet, name)(t), getattr(ref, name)(t))
        for name in ("gm", "gds"):
            bias = params.sign * rng.uniform(0.0, 0.7, 2)
            _same(getattr(fet, name)(*bias, t), getattr(ref, name)(*bias, t))


@pytest.mark.parametrize("tile", [1, 3])
def test_stacked_currents(tile):
    rng = np.random.default_rng(tile)
    params = [_random_params(rng, pol) for pol in "npnpnpn"]
    counts = [3, 1, 2, 4, 1, 2, 1]
    stack = stack_models([FinFET(p) for p in params], counts, tile=tile)
    ref = oracle_stack_models([OracleFinFET(p) for p in params], counts,
                              tile=tile)
    n = sum(counts) * tile
    for t in TEMPERATURES:
        vgs, vds = rng.uniform(-0.8, 0.8, n), rng.uniform(-0.8, 0.8, n)
        _same(stack.ids(vgs, vds, t), ref.ids(vgs, vds, t))
        _same(stack.ids(vgs[:, None], vds, t), ref.ids(vgs[:, None], vds, t))


@pytest.mark.parametrize("tile", [1, 3])
def test_stack_of_shared_records(tile):
    """Models sharing a params record (one table column per distinct
    record, expanded by index) stack to the bytes of the gathered oracle."""
    rng = np.random.default_rng(10 + tile)
    params = [_random_params(rng, pol) for pol in "npn"]
    picks = [0, 1, 0, 2, 1, 1, 0, 2]
    stack = stack_models([FinFET(params[k]) for k in picks], 1, tile=tile)
    ref = oracle_stack_models([OracleFinFET(params[k]) for k in picks],
                              [1] * len(picks), tile=tile)
    n = len(picks) * tile
    for name, row in vars(stack.params).items():
        if name != "sign":
            _same(row, getattr(ref.params, name))
    for t in TEMPERATURES:
        vgs, vds = rng.uniform(-0.8, 0.8, n), rng.uniform(-0.8, 0.8, n)
        _same(stack.ids(vgs, vds, t), ref.ids(vgs, vds, t))


def test_scalar_call_type_is_polarity_independent():
    n = FinFET(default_nfet()).ids(0.5, 0.5, 300.0)
    p = FinFET(default_pfet()).ids(-0.5, -0.5, 300.0)
    assert type(n) is type(p)


@pytest.mark.parametrize("fields", [("VTH0", "UO"), ("eot", "hfin", "COV"),
                                    ("lgate", "ITUN")])
def test_patched_table_equals_records(fields):
    """A table patched from one record's column equals the table of the
    patched records, derived rows (weff, cox, cgate_fin) included."""
    base = default_pfet()
    rng = np.random.default_rng(len(fields))
    values = [[getattr(base, f) * rng.uniform(0.8, 1.2) for f in fields]
              for _ in range(4)]
    records = [base.copy(**dict(zip(fields, v))) for v in values]
    patched = patch_table(parameter_table([base]),
                          [TABLE_ROW[f] for f in fields], values)
    np.testing.assert_array_equal(patched, parameter_table(records),
                                  strict=True)

"""The table-driven ISS equals the if/elif oracle exactly, step by step.

``repro.soc.cpu`` decodes each word once into a record and dispatches
from a handler table; ``tests/soc/oracle.py`` re-classifies and walks a
per-mnemonic chain every step.  Every comparison here is ``==``: PC,
both register files (``f`` bitwise), both scoreboards and every
``ExecutionStats`` field after every step of every paper kernel; one
step from every fuzzed word and every single-bit flip of a kernel's
text; and every record of a small SEU campaign run on each engine.
"""

from __future__ import annotations

import random
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.soc.soc as soc_module
from repro.classify import HDCClassifier, HDCEncoder
from repro.reliability import CampaignConfig, knn_workload, run_campaign
from repro.soc import CPU, RocketSoC
from repro.soc.cpu import HANDLERS
from repro.soc.isa import OPCODES
from repro.soc.programs import pack_hdc_tables
from tests.soc.oracle import OracleCPU

_NQ, _SHOTS = 8, 8


def _hdc_tables(centers: np.ndarray) -> tuple[bytes, bytes]:
    encoder = HDCEncoder.random(seed=5)
    clf = HDCClassifier.from_centers(centers, encoder=encoder)
    pre = pack_hdc_tables(encoder.y_items, xc0=clf.xc_tables[:, 0],
                          xc1=clf.xc_tables[:, 1])
    naive = pack_hdc_tables(encoder.y_items, x_items=encoder.x_items,
                            c0=clf.prototypes[:, 0], c1=clf.prototypes[:, 1])
    return pre, naive


def _kernels() -> dict:
    """Every kernel of ``soc/programs.py``, as a call on a RocketSoC."""
    rng = np.random.default_rng(17)
    centers = rng.normal(0.0, 0.8, (_NQ, 2, 2))
    meas = rng.normal(0.0, 0.8, (_SHOTS * _NQ, 2))
    pre, naive = _hdc_tables(centers)
    bits = rng.integers(0, 2, 7 * 5).astype(np.uint8)
    params = rng.integers(-1000, 1000, 6)
    signs = rng.integers(0, 2, 6).astype(np.uint8)
    return {
        "knn": lambda s: s.run_knn(centers, meas, _NQ),
        "knn_sqrt": lambda s: s.run_knn(centers, meas, _NQ, with_sqrt=True),
        "hdc_precomputed": lambda s: s.run_hdc(pre, meas, _NQ),
        "hdc_naive": lambda s: s.run_hdc(naive, meas, _NQ,
                                         precomputed_xor=False),
        "hdc_cpop": lambda s: s.run_hdc(pre, meas, _NQ,
                                        hardware_popcount=True),
        "dhrystone": lambda s: s.run_dhrystone(iterations=10),
        "qec_majority": lambda s: s.run_qec_decode(bits, 5),
        "vqe_update": lambda s: s.run_vqe_update(bits, params, signs),
    }


KERNELS = _kernels()


def _loaded(engine: type, kernel) -> CPU:
    """The CPU a RocketSoC workload builds, loaded but not yet run."""
    cpus: list[CPU] = []

    def capture(name, cpu, **kwargs):
        cpus.append(cpu)
        return cpu.stats

    with mock.patch.object(soc_module, "CPU", engine), \
            mock.patch.object(soc_module, "_traced_run", capture):
        kernel(RocketSoC(popcount_extension=True))
    return cpus[0]


def _scoreboard(cpu: CPU) -> list[int]:
    if isinstance(cpu, OracleCPU):
        return cpu._ready_x + cpu._ready_f
    return cpu._ready


def _state(cpu: CPU) -> tuple:
    return (cpu.pc, cpu.x, struct.pack("<32d", *cpu.f), _scoreboard(cpu),
            cpu.stats, cpu.halted, cpu.exit_code)


def test_every_mnemonic_has_one_handler():
    assert set(HANDLERS) == set(OPCODES)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_lockstep(name):
    engine = _loaded(CPU, KERNELS[name])
    oracle = _loaded(OracleCPU, KERNELS[name])
    assert _state(engine) == _state(oracle)
    while not oracle.halted:
        oracle.step()
        engine.step()
        assert _state(engine) == _state(oracle), (
            f"diverged after {oracle.stats.instructions} instructions "
            f"at pc {oracle.pc:#x}")
    assert engine.stats.instructions > 100
    assert engine.memory._pages == oracle.memory._pages
    for level in ("l1i", "l1d", "l2"):
        assert (getattr(engine.caches, level).stats
                == getattr(oracle.caches, level).stats)


# ---------------------------------------------------------------------- #
# One step from an arbitrary word
# ---------------------------------------------------------------------- #
_PC = 0x2000
_RNG = random.Random(5)
_X = ([0] + [_RNG.getrandbits(64) - (1 << 63) for _ in range(27)]
      + [0x100000, 8, -1, 7])
_F = [0.0, -0.0, 1.5, -3.25, 1e300, -1e-300, float("inf"), 2.0 ** 40] * 4


def _one_step(engine: type, word: int, popcount: bool):
    """State after one step of ``word`` from a busy pipeline, or the error."""
    cpu = engine(popcount_extension=popcount)
    cpu.memory.store_u(_PC, 4, word)
    cpu.pc = _PC
    cpu.x[:] = _X
    cpu.f[:] = _F
    cpu.stats.cycles = 30
    # Every register but x0 (never written, so always ready) is pending.
    ready = [0] + [20 + (7 * i) % 23 for i in range(1, 64)]
    if isinstance(cpu, OracleCPU):
        cpu._ready_x[:], cpu._ready_f[:] = ready[:32], ready[32:]
    else:
        cpu._ready[:] = ready
    try:
        cpu.step()
    except Exception as exc:
        return type(exc), str(exc)
    return _state(cpu) + (cpu.memory._pages,)


def _assert_same_step(word: int, popcount: bool) -> None:
    assert (_one_step(CPU, word, popcount)
            == _one_step(OracleCPU, word, popcount)), f"word {word:#010x}"


@given(word=st.integers(0, (1 << 32) - 1), popcount=st.booleans())
@settings(max_examples=400, deadline=None)
def test_fuzzed_word_one_step(word, popcount):
    _assert_same_step(word, popcount)


@pytest.mark.parametrize("opcode", sorted({op.opcode for op in
                                           OPCODES.values()}))
@given(upper=st.integers(0, (1 << 25) - 1), popcount=st.booleans())
@settings(max_examples=40, deadline=None)
def test_fuzzed_fields_one_step(opcode, upper, popcount):
    """Random fields under each real opcode, where most words decode."""
    _assert_same_step((upper << 7) | opcode, popcount)


def test_every_single_bit_flip_of_kernel_text():
    words = set()
    for kernel in KERNELS.values():
        cpu = _loaded(CPU, kernel)
        addr = cpu.pc  # text runs to the first zero word (no encoding is 0)
        while (word := cpu.memory.load_u(addr, 4)) != 0:
            words.add(word)
            addr += 4
    assert len(words) > 100
    for word in sorted(words):
        for bit in range(32):
            for popcount in (False, True):
                _assert_same_step(word ^ (1 << bit), popcount)


def test_seu_campaign_records_identical():
    rng = np.random.default_rng(2023)
    centers = rng.normal(0.0, 0.8, (_NQ, 2, 2))
    meas = rng.normal(0.0, 0.8, (2 * _NQ, 2))
    spec = knn_workload(centers, meas, _NQ)
    for tmr in (False, True):
        config = CampaignConfig(n_injections=60, seed=2023, tmr=tmr)
        engine = run_campaign(spec, config, jobs=1, cache=False)
        with mock.patch.object(soc_module, "CPU", OracleCPU):
            oracle = run_campaign(spec, config, jobs=1, cache=False)
        assert engine.golden_cycles == oracle.golden_cycles
        assert engine.records == oracle.records
        assert len(set(r.outcome for r in engine.records)) > 1

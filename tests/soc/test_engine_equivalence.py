"""The table-driven ISS equals the if/elif oracle exactly, step by step.

``repro.soc.cpu`` decodes the word at each PC once into a record
(dropped when its page is written) and dispatches from a handler table;
``tests/soc/oracle.py`` decodes the fetched word, re-classifies it and
walks a per-mnemonic chain every step, on reference caches without the
engine's MRU-line hit.  Every comparison here is ``==``: PC, both
register files (``f`` bitwise), both scoreboards, every
``ExecutionStats`` field and every cache's statistics after every step
of every paper kernel, and of kernels whose text or caches change
mid-run; one step from every fuzzed word and every single-bit flip of a
kernel's text; and every record of a small SEU campaign run on each
engine.
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
from repro.soc import CPU, RocketSoC, assemble
from repro.soc.cpu import HANDLERS
from repro.soc.isa import OPCODES, Instruction, encode
from repro.soc.programs import pack_hdc_tables
from repro.soc.soc import WorkloadSpec
from tests.soc.oracle import OracleCPU, reference_hierarchy

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
    """The CPU a RocketSoC workload builds, loaded but not yet run, with
    the popcount extension on (so a flipped word that decodes to ``cpop``
    executes instead of trapping).  The oracle gets reference caches."""
    cpus: list[CPU] = []

    def capture(name, cpu, **kwargs):
        cpu.popcount_extension = True
        cpus.append(cpu)
        return cpu.stats

    caches = reference_hierarchy if engine is OracleCPU else None
    with mock.patch.object(soc_module, "CPU", engine), \
            mock.patch.object(soc_module, "_traced_run", capture):
        kernel(RocketSoC(cache_factory=caches))
    return cpus[0]


def _scoreboard(cpu: CPU) -> list[int]:
    if isinstance(cpu, OracleCPU):
        return cpu._ready_x + cpu._ready_f
    return cpu._ready


def _state(cpu: CPU) -> tuple:
    return (cpu.pc, cpu.x, struct.pack("<32d", *cpu.f), _scoreboard(cpu),
            cpu.stats, cpu.halted, cpu.exit_code)


def _cache_stats(cpu: CPU) -> tuple:
    caches = cpu.caches
    return caches.l1i.stats, caches.l1d.stats, caches.l2.stats


def _lockstep(kernel, event=None, max_steps: int = 200_000):
    """Step engine and oracle together until the oracle halts or both
    raise the same error, comparing state and cache statistics after
    every step.  ``event(cpu, n)``, if given, acts on each machine before
    step ``n`` (counted from 0).  Returns the pair."""
    engine = _loaded(CPU, kernel)
    oracle = _loaded(OracleCPU, kernel)
    assert _state(engine) == _state(oracle)
    for n in range(max_steps):
        if oracle.halted:
            break
        if event is not None:
            event(engine, n)
            event(oracle, n)
        errors = []
        for cpu in (oracle, engine):
            try:
                cpu.step()
            except Exception as exc:
                errors.append((type(exc), str(exc)))
        assert len(errors) in (0, 2) and len(set(errors)) <= 1, errors
        assert _state(engine) == _state(oracle), (
            f"diverged after {oracle.stats.instructions} instructions "
            f"at pc {oracle.pc:#x}")
        assert _cache_stats(engine) == _cache_stats(oracle)
        if errors:
            break
    assert engine.memory._pages == oracle.memory._pages
    return engine, oracle


def test_every_mnemonic_has_one_handler():
    assert set(HANDLERS) == set(OPCODES)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_lockstep(name):
    engine, oracle = _lockstep(KERNELS[name])
    assert oracle.halted
    assert engine.stats.instructions > 100


# ---------------------------------------------------------------------- #
# Decode invalidation: text and caches that change mid-run
# ---------------------------------------------------------------------- #
_ADD_100 = encode(Instruction("addi", rd=10, rs1=10, imm=100))
_SELF_MODIFYING = assemble(f"""
_start:
    li t2, 6
    li t4, 4
    li t3, {_ADD_100}
    la t0, patch
loop:
    addi t2, t2, -1
    bne t2, t4, patch
    sw t3, 0(t0)
patch:
    addi a0, a0, 1
    bnez t2, loop
    ecall
""")


def test_store_into_text_ahead_of_pc_decodes_afresh():
    # The first pass runs the original `patch` (+1); the store in the
    # second rewrites it, just ahead of the PC, to +100 for the last five.
    image = WorkloadSpec("self_modifying", _SELF_MODIFYING)
    engine, oracle = _lockstep(lambda soc: soc_module._traced_run(
        image.name, soc.prepare(image)))
    assert oracle.halted
    assert engine.exit_code == oracle.exit_code == 1 + 5 * 100


@pytest.mark.parametrize("bit", [7, 15, 21, 30])
def test_flip_of_next_instruction_decodes_afresh(bit):
    # Strike at the first step from 300 on whose PC already ran, so the
    # engine holds a decoded record of the word it is about to fetch.
    cpu, seen = _loaded(CPU, KERNELS["knn"]), set()
    while cpu.stats.instructions < 300 or cpu.pc not in seen:
        seen.add(cpu.pc)
        cpu.step()
    at, struck = cpu.stats.instructions, []

    def flip(cpu, n):
        if n == at:
            struck.append(cpu.pc)
            cpu.memory.flip_bit(cpu.pc + bit // 8, bit % 8)

    _lockstep(KERNELS["knn"], flip, max_steps=20_000)
    assert struck == [cpu.pc] * 2


def test_cache_flush_mid_run():
    def flush(cpu, n):
        if n % 250 == 100:
            cpu.caches.flush()

    engine, oracle = _lockstep(KERNELS["hdc_precomputed"], flush)
    assert oracle.halted


def test_icache_tag_strike_on_executing_line_mid_run():
    struck = []

    def strike(cpu, n):
        if n % 97 == 50:
            l1i = cpu.caches.l1i
            struck.append(l1i.corrupt_tag(*l1i._locate(cpu.pc)))

    engine, oracle = _lockstep(KERNELS["knn"], strike)
    assert oracle.halted
    assert struck and all(struck)


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
        engine = run_campaign(spec, config, jobs=1)
        with mock.patch.object(soc_module, "CPU", OracleCPU):
            oracle = run_campaign(spec, config, jobs=1)
        assert engine.golden_cycles == oracle.golden_cycles
        assert engine.records == oracle.records
        assert len(set(r.outcome for r in engine.records)) > 1

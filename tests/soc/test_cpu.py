"""Functional and timing tests for the ISS."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc import CPU, HaltError, assemble
from repro.soc.cache import CacheHierarchy


def run(source: str, popcount: bool = False) -> CPU:
    cpu = CPU(popcount_extension=popcount)
    cpu.load_program(assemble(source))
    cpu.run()
    return cpu


class TestIntegerSemantics:
    @given(a=st.integers(-(2**31), 2**31 - 1), b=st.integers(-(2**31), 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_add_sub_mul(self, a, b):
        cpu = run(
            f"_start:\n li t0, {a}\n li t1, {b}\n"
            " add a0, t0, t1\n sub a1, t0, t1\n mul a2, t0, t1\n ecall\n"
        )
        mask = 2**64 - 1
        assert cpu.x[10] & mask == (a + b) & mask
        assert cpu.x[11] & mask == (a - b) & mask
        assert cpu.x[12] & mask == (a * b) & mask

    @given(a=st.integers(0, 2**63 - 1), sh=st.integers(0, 63))
    @settings(max_examples=40, deadline=None)
    def test_shifts(self, a, sh):
        cpu = run(
            f"_start:\n li t0, {a}\n li t1, {sh}\n"
            " sll a0, t0, t1\n srl a1, t0, t1\n ecall\n"
        )
        mask = 2**64 - 1
        assert cpu.x[10] & mask == (a << sh) & mask
        assert cpu.x[11] & mask == (a & mask) >> sh

    @given(a=st.integers(-1000, 1000), b=st.integers(-1000, 1000))
    @settings(max_examples=40, deadline=None)
    def test_division_truncates_toward_zero(self, a, b):
        cpu = run(
            f"_start:\n li t0, {a}\n li t1, {b}\n"
            " div a0, t0, t1\n rem a1, t0, t1\n ecall\n"
        )
        if b == 0:
            assert cpu.x[10] == -1
            assert cpu.x[11] == a
        else:
            import math

            q = math.trunc(a / b)
            assert cpu.x[10] == q
            assert cpu.x[11] == a - q * b

    def test_signed_unsigned_compare(self):
        cpu = run(
            "_start:\n li t0, -1\n li t1, 1\n"
            " slt a0, t0, t1\n sltu a1, t0, t1\n ecall\n"
        )
        assert cpu.x[10] == 1  # -1 < 1 signed
        assert cpu.x[11] == 0  # 0xFFFF.. > 1 unsigned

    def test_word_ops_sign_extend(self):
        cpu = run(
            "_start:\n li t0, 0x7FFFFFFF\n addiw a0, t0, 1\n ecall\n"
        )
        assert cpu.x[10] == -(2**31)

    def test_x0_stays_zero(self):
        cpu = run("_start:\n li t0, 9\n add zero, t0, t0\n mv a0, zero\n ecall\n")
        assert cpu.exit_code == 0


class TestFloatingPoint:
    def test_arithmetic(self):
        cpu = run(
            """
.data
a: .double 1.5
b: .double 2.25
.text
_start:
    la t0, a
    fld fa0, 0(t0)
    fld fa1, 8(t0)
    fadd.d fa2, fa0, fa1
    fmul.d fa3, fa0, fa1
    fsub.d fa4, fa1, fa0
    fdiv.d fa5, fa1, fa0
    flt.d a0, fa0, fa1
    fle.d a1, fa1, fa1
    feq.d a2, fa0, fa1
    fcvt.w.d a3, fa3
    ecall
"""
        )
        assert cpu.exit_code == 1
        assert cpu.x[11] == 1
        assert cpu.x[12] == 0
        assert cpu.x[13] == 3  # trunc(3.375)
        assert cpu.f[12] == pytest.approx(3.75)
        assert cpu.f[15] == pytest.approx(1.5)

    def test_bit_moves(self):
        bits = struct.unpack("<Q", struct.pack("<d", -2.5))[0]
        cpu = run(
            f"_start:\n li t0, {bits}\n fmv.d.x fa0, t0\n"
            " fmv.x.d a0, fa0\n ecall\n"
        )
        assert cpu.x[10] & (2**64 - 1) == bits

    def test_fsd_fld_roundtrip(self):
        cpu = run(
            """
.data
v: .double 6.5
buf: .zero 8
.text
_start:
    la t0, v
    fld fa0, 0(t0)
    fsd fa0, 8(t0)
    fld fa1, 8(t0)
    fadd.d fa0, fa0, fa1
    fcvt.w.d a0, fa0
    ecall
"""
        )
        assert cpu.exit_code == 13


class TestPopcountExtension:
    def test_cpop_requires_extension(self):
        with pytest.raises(ValueError, match="popcount"):
            run("_start:\n li t0, 7\n cpop a0, t0, zero\n ecall\n")

    @given(v=st.integers(0, 2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cpop_counts_bits(self, v):
        cpu = run(
            f"_start:\n li t0, {v}\n cpop a0, t0, zero\n ecall\n",
            popcount=True,
        )
        assert cpu.exit_code == bin(v).count("1")


class TestTiming:
    def test_cycles_at_least_instructions(self):
        cpu = run("_start:\n li a0, 1\n li a1, 2\n add a0, a0, a1\n ecall\n")
        assert cpu.stats.cycles >= cpu.stats.instructions

    def test_dependent_chain_slower_than_independent(self):
        dep = run(
            "_start:\n li t0, 1\n"
            + " mul t0, t0, t0\n" * 8
            + " ecall\n"
        ).stats.cycles
        indep = run(
            "_start:\n li t0, 1\n li t1, 1\n"
            + (" mul t2, t0, t0\n mul t3, t1, t1\n" * 4)
            + " ecall\n"
        ).stats.cycles
        assert dep > indep

    @pytest.mark.parametrize("reg", ["ft0", "ft2"])
    @pytest.mark.parametrize("write", ["fld", "fmv.d.x"])
    def test_fp_destination_marks_scoreboard(self, write, reg):
        # f0 is an ordinary FP register: its reader waits out the
        # 2-cycle load/move latency like any other.
        operand = "0(sp)" if write == "fld" else "zero"
        stats = run(
            f"_start:\n {write} {reg}, {operand}\n"
            f" fadd.d ft1, {reg}, {reg}\n ecall\n"
        ).stats
        assert stats.stall_cycles_raw - stats.stall_cycles_dcache == 1

    def test_load_use_bubble(self):
        base = run(
            """
.data
v: .dword 1
.text
_start:
    la t0, v
    ld t1, 0(t0)
    nop
    add a0, t1, t1
    ecall
"""
        ).stats.cycles
        hazard = run(
            """
.data
v: .dword 1
.text
_start:
    la t0, v
    ld t1, 0(t0)
    add a0, t1, t1
    nop
    ecall
"""
        ).stats.cycles
        # Same instruction count; the load-use order must not be faster.
        assert hazard >= base

    def test_taken_branch_costs_redirect(self):
        taken = run(
            "_start:\n li t0, 1\n beq t0, t0, skip\nskip:\n ecall\n"
        ).stats
        not_taken = run(
            "_start:\n li t0, 1\n bne t0, t0, skip\nskip:\n ecall\n"
        ).stats
        assert taken.cycles > not_taken.cycles

    def test_instruction_budget_enforced(self):
        cpu = CPU()
        cpu.load_program(assemble("_start:\n j _start\n"))
        with pytest.raises(HaltError):
            cpu.run(max_instructions=1000)

    def test_cold_icache_miss_recorded(self):
        cpu = run("_start:\n li a0, 1\n ecall\n")
        assert cpu.stats.count("l1i_miss") >= 1
        assert cpu.stats.stall_cycles_icache > 0

    def test_profile_rates_bounded(self):
        cpu = run(
            "_start:\n li t0, 0\n li t1, 50\nl:\n addi t0, t0, 1\n"
            " blt t0, t1, l\n ecall\n"
        )
        profile = cpu.stats.profile()
        for key, value in profile.items():
            assert 0.0 <= value <= 2.0, key

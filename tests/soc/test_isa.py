"""Encode/decode round-trip and field tests for the ISA layer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.assembler import AssemblyError, assemble
from repro.soc.isa import (
    FREGISTER_NAMES,
    OPCODES,
    REGISTER_NAMES,
    Instruction,
    decode,
    encode,
)

_IMM = {"I": 100, "I*": 7, "S": -12, "B": 2048, "U": 0x12345, "J": 4096}
_REGS = {"rd": 3, "rs1": 4, "rs2": 5}


def _source(mnemonic: str, files: str) -> str:
    """One instruction in text, each register named from ``files``."""
    spec = OPCODES[mnemonic]
    name = {field: (FREGISTER_NAMES if file == "f" else REGISTER_NAMES)[i]
            for (field, i), file in zip(_REGS.items(), files)}
    if spec.kind == "load":
        return f"{mnemonic} {name['rd']}, {_IMM['I']}({name['rs1']})"
    if spec.kind == "store":
        return f"{mnemonic} {name['rs2']}, {_IMM['S']}({name['rs1']})"
    ops = [name[f] for f, file in zip(_REGS, spec.files) if file != "-"]
    if ops and spec.fmt != "R":
        ops.append(str(_IMM[spec.fmt]))
    return f"{mnemonic} {', '.join(ops)}"


class TestRoundTrip:
    @pytest.mark.parametrize("mnemonic", sorted(OPCODES))
    def test_every_mnemonic_roundtrips(self, mnemonic):
        fmt = OPCODES[mnemonic][0]
        instr = Instruction(
            mnemonic,
            rd=3 if fmt != "B" else 0,
            rs1=4 if fmt not in ("U", "J") else 0,
            rs2=5 if fmt in ("R", "S", "B") else 0,
            # ecall is the SYSTEM word whose immediate is 0.
            imm=0 if mnemonic == "ecall" else
            {"I": 100, "I*": 7, "S": -12, "B": 2048, "U": 0x12345,
             "J": 4096}.get(fmt, 0),
        )
        back = decode(encode(instr))
        assert back.mnemonic == mnemonic
        if fmt in ("I", "S", "B", "J", "I*"):
            assert back.imm == instr.imm

        # From text, with each operand in the file the table gives it.
        files = OPCODES[mnemonic].files
        (word,) = assemble(_source(mnemonic, files)).text
        back = decode(word)
        used = [f for f, file in zip(_REGS, files) if file != "-"]
        assert back.mnemonic == mnemonic
        assert back.imm == (_IMM.get(fmt, 0) if used else 0)
        assert {f: getattr(back, f) for f in _REGS} == {
            f: _REGS[f] if f in used else 0 for f in _REGS}
        for k, file in enumerate(files):
            if file != "-":  # the same operand from the other file
                wrong = files[:k] + ("x" if file == "f" else "f") + files[k + 1:]
                with pytest.raises(AssemblyError, match="register"):
                    assemble(_source(mnemonic, wrong))

    @given(
        rd=st.integers(1, 31), rs1=st.integers(0, 31),
        imm=st.integers(-2048, 2047),
    )
    @settings(max_examples=60, deadline=None)
    def test_itype_fields(self, rd, rs1, imm):
        back = decode(encode(Instruction("addi", rd=rd, rs1=rs1, imm=imm)))
        assert (back.rd, back.rs1, back.imm) == (rd, rs1, imm)

    @given(imm=st.integers(-4096, 4094).map(lambda x: x & ~1))
    @settings(max_examples=60, deadline=None)
    def test_branch_offsets(self, imm):
        back = decode(encode(Instruction("beq", rs1=1, rs2=2, imm=imm)))
        assert back.imm == imm

    @given(imm=st.integers(-(1 << 20), (1 << 20) - 2).map(lambda x: x & ~1))
    @settings(max_examples=60, deadline=None)
    def test_jal_offsets(self, imm):
        back = decode(encode(Instruction("jal", rd=1, imm=imm)))
        assert back.imm == imm

    def test_unknown_word_raises(self):
        with pytest.raises(ValueError):
            decode(0xFFFFFFFF)

    @pytest.mark.parametrize("word", [
        0x0A000033,  # OP, funct7 0x05
        0x0200103B,  # OP-32, funct3 1 / funct7 0x01
        0x0000700B,  # custom-0, funct3 7
        0x00002063,  # BRANCH, funct3 2
        0x00007023,  # STORE, funct3 7
        0x00007003,  # LOAD, funct3 7
        0x00001073,  # SYSTEM, funct3 1 (csrrw)
        0x00100073,  # ebreak: ecall's opcode and funct3, imm 1
        0x30200073,  # mret
        0x10500073,  # wfi
    ])
    def test_undefined_encoding_under_known_opcode_raises(self, word):
        with pytest.raises(ValueError, match=f"{word:#010x}"):
            decode(word)

    def test_fp_discriminators(self):
        # fcvt.d.w and fcvt.d.l share funct7; rs2 disambiguates.
        w = decode(encode(Instruction("fcvt.d.w", rd=1, rs1=2)))
        l = decode(encode(Instruction("fcvt.d.l", rd=1, rs1=2)))
        assert w.mnemonic == "fcvt.d.w"
        assert l.mnemonic == "fcvt.d.l"

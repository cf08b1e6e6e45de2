"""RV64IMFD-subset instruction encodings and decoder.

Real RISC-V machine encodings (the assembler emits 32-bit words, the CPU
fetches and decodes them), covering what the paper's workloads need:

* RV64I base integer ISA (loads/stores, ALU, branches, jumps, LUI/AUIPC);
* M-extension multiply/divide (the Rocket core is RV64IMAFDC; our kernels
  use MUL/DIV);
* the D-extension subset the kNN classifier's "floating point
  calculations" require (FLD/FSD, FADD/FSUB/FMUL/FDIV.D, comparisons,
  moves and int<->double conversion for quantization);
* ECALL as the halt convention.

Notably there is **no popcount instruction** -- the paper's central
observation about HDC performance ("the lack of a popcount instruction in
the RISC-V instruction set architecture").  The ABL-1 ablation bench adds
a custom one to quantify exactly that gap.

:data:`OPCODES` is the one instruction table: per mnemonic, its encoding,
the register file of each operand and its timing class.  The assembler,
:func:`decode` and :mod:`repro.soc.cpu` (which decodes each word once and
dispatches on the record) all read it; the CPU adds only one handler per
mnemonic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["Instruction", "Opcode", "decode", "encode", "OPCODES",
           "REGISTER_NAMES", "FREGISTER_NAMES"]

# ABI register names, index = architectural number.
REGISTER_NAMES = (
    "zero ra sp gp tp t0 t1 t2 s0 s1 a0 a1 a2 a3 a4 a5 a6 a7 "
    "s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 t3 t4 t5 t6"
).split()

FREGISTER_NAMES = (
    "ft0 ft1 ft2 ft3 ft4 ft5 ft6 ft7 fs0 fs1 fa0 fa1 fa2 fa3 fa4 fa5 "
    "fa6 fa7 fs2 fs3 fs4 fs5 fs6 fs7 fs8 fs9 fs10 fs11 ft8 ft9 ft10 ft11"
).split()


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction."""

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0


def _sext(value: int, bits: int) -> int:
    """Sign-extend ``bits``-wide value."""
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


class Opcode(NamedTuple):
    """One row of :data:`OPCODES`: everything the tools know of a mnemonic."""

    fmt: str  # R, I, I* (6-bit shamt), S, B, U or J
    opcode: int
    funct3: int | None
    funct7: int | None
    files: str  # register file of rd, rs1, rs2: x, f or - (not a register)
    kind: str  # timing class, priced by repro.soc.cpu.LATENCY


_R, _I, _S, _B = 0b0110011, 0b0010011, 0b0100011, 0b1100011
_RW, _IW, _LD, _FP = 0b0111011, 0b0011011, 0b0000011, 0b1010011

#: The instruction table (see the module docstring).
OPCODES: dict[str, Opcode] = {m: Opcode(*row) for m, row in {
    # RV64I
    "lui": ("U", 0b0110111, None, None, "x--", "alu"),
    "auipc": ("U", 0b0010111, None, None, "x--", "alu"),
    "jal": ("J", 0b1101111, None, None, "x--", "branch"),
    "jalr": ("I", 0b1100111, 0b000, None, "xx-", "branch"),
    "beq": ("B", _B, 0b000, None, "-xx", "branch"),
    "bne": ("B", _B, 0b001, None, "-xx", "branch"),
    "blt": ("B", _B, 0b100, None, "-xx", "branch"),
    "bge": ("B", _B, 0b101, None, "-xx", "branch"),
    "bltu": ("B", _B, 0b110, None, "-xx", "branch"),
    "bgeu": ("B", _B, 0b111, None, "-xx", "branch"),
    "lb": ("I", _LD, 0b000, None, "xx-", "load"),
    "lh": ("I", _LD, 0b001, None, "xx-", "load"),
    "lw": ("I", _LD, 0b010, None, "xx-", "load"),
    "ld": ("I", _LD, 0b011, None, "xx-", "load"),
    "lbu": ("I", _LD, 0b100, None, "xx-", "load"),
    "lhu": ("I", _LD, 0b101, None, "xx-", "load"),
    "lwu": ("I", _LD, 0b110, None, "xx-", "load"),
    "sb": ("S", _S, 0b000, None, "-xx", "store"),
    "sh": ("S", _S, 0b001, None, "-xx", "store"),
    "sw": ("S", _S, 0b010, None, "-xx", "store"),
    "sd": ("S", _S, 0b011, None, "-xx", "store"),
    "addi": ("I", _I, 0b000, None, "xx-", "alu"),
    "slti": ("I", _I, 0b010, None, "xx-", "alu"),
    "sltiu": ("I", _I, 0b011, None, "xx-", "alu"),
    "xori": ("I", _I, 0b100, None, "xx-", "alu"),
    "ori": ("I", _I, 0b110, None, "xx-", "alu"),
    "andi": ("I", _I, 0b111, None, "xx-", "alu"),
    "slli": ("I*", _I, 0b001, 0b000000, "xx-", "alu"),
    "srli": ("I*", _I, 0b101, 0b000000, "xx-", "alu"),
    "srai": ("I*", _I, 0b101, 0b010000, "xx-", "alu"),
    "add": ("R", _R, 0b000, 0b0000000, "xxx", "alu"),
    "sub": ("R", _R, 0b000, 0b0100000, "xxx", "alu"),
    "sll": ("R", _R, 0b001, 0b0000000, "xxx", "alu"),
    "slt": ("R", _R, 0b010, 0b0000000, "xxx", "alu"),
    "sltu": ("R", _R, 0b011, 0b0000000, "xxx", "alu"),
    "xor": ("R", _R, 0b100, 0b0000000, "xxx", "alu"),
    "srl": ("R", _R, 0b101, 0b0000000, "xxx", "alu"),
    "sra": ("R", _R, 0b101, 0b0100000, "xxx", "alu"),
    "or": ("R", _R, 0b110, 0b0000000, "xxx", "alu"),
    "and": ("R", _R, 0b111, 0b0000000, "xxx", "alu"),
    "addiw": ("I", _IW, 0b000, None, "xx-", "alu"),
    "slliw": ("I*", _IW, 0b001, 0b000000, "xx-", "alu"),
    "srliw": ("I*", _IW, 0b101, 0b000000, "xx-", "alu"),
    "sraiw": ("I*", _IW, 0b101, 0b010000, "xx-", "alu"),
    "addw": ("R", _RW, 0b000, 0b0000000, "xxx", "alu"),
    "subw": ("R", _RW, 0b000, 0b0100000, "xxx", "alu"),
    "sllw": ("R", _RW, 0b001, 0b0000000, "xxx", "alu"),
    "srlw": ("R", _RW, 0b101, 0b0000000, "xxx", "alu"),
    "sraw": ("R", _RW, 0b101, 0b0100000, "xxx", "alu"),
    "ecall": ("I", 0b1110011, 0b000, None, "---", "alu"),
    # RV64M
    "mul": ("R", _R, 0b000, 0b0000001, "xxx", "mul"),
    "mulh": ("R", _R, 0b001, 0b0000001, "xxx", "mul"),
    "div": ("R", _R, 0b100, 0b0000001, "xxx", "div"),
    "divu": ("R", _R, 0b101, 0b0000001, "xxx", "div"),
    "rem": ("R", _R, 0b110, 0b0000001, "xxx", "div"),
    "remu": ("R", _R, 0b111, 0b0000001, "xxx", "div"),
    "mulw": ("R", _RW, 0b000, 0b0000001, "xxx", "mul"),
    # RV64D subset (funct3 None: the rm field, encoded as dynamic)
    "fld": ("I", 0b0000111, 0b011, None, "fx-", "load"),
    "fsd": ("S", 0b0100111, 0b011, None, "-xf", "store"),
    "fadd.d": ("R", _FP, None, 0b0000001, "fff", "fp"),
    "fsub.d": ("R", _FP, None, 0b0000101, "fff", "fp"),
    "fmul.d": ("R", _FP, None, 0b0001001, "fff", "fp"),
    "fdiv.d": ("R", _FP, None, 0b0001101, "fff", "fp_div"),
    "feq.d": ("R", _FP, 0b010, 0b1010001, "xff", "fp_short"),
    "flt.d": ("R", _FP, 0b001, 0b1010001, "xff", "fp_short"),
    "fle.d": ("R", _FP, 0b000, 0b1010001, "xff", "fp_short"),
    "fmv.x.d": ("R", _FP, 0b000, 0b1110001, "xf-", "fp_short"),
    "fmv.d.x": ("R", _FP, 0b000, 0b1111001, "fx-", "fp_short"),
    "fcvt.w.d": ("R", _FP, 0b001, 0b1100001, "xf-", "fp"),  # rm=rtz
    "fcvt.d.w": ("R", _FP, 0b000, 0b1101001, "fx-", "fp"),
    "fcvt.d.l": ("R", _FP, 0b000, 0b1101001, "fx-", "fp"),  # rs2 = 2
    # Custom ablation instruction (ABL-1): population count.  Encoded in
    # the custom-0 opcode space; OFF by default in the CPU unless the
    # `popcount_extension` flag is set.
    "cpop": ("R", 0b0001011, 0b000, 0b0000000, "xxx", "alu"),
}.items()}

# fcvt.d.l shares funct7 with fcvt.d.w; rs2 field disambiguates (0 vs 2).
_FCVT_RS2 = {"fcvt.w.d": 0, "fcvt.d.w": 0, "fcvt.d.l": 2}


def encode(instr: Instruction) -> int:
    """Encode a decoded instruction back to its 32-bit word."""
    fmt, opcode, funct3, funct7, _, _ = OPCODES[instr.mnemonic]
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    if instr.mnemonic == "ecall" and imm:
        # Any other immediate is ebreak, mret, wfi, ... (see decode).
        raise ValueError(f"ecall takes no immediate (got {imm})")
    if instr.mnemonic in _FCVT_RS2:
        rs2 = _FCVT_RS2[instr.mnemonic]
    f3 = funct3 if funct3 is not None else 0b111  # dynamic rounding mode
    if fmt == "R":
        return (
            (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12)
            | (rd << 7) | opcode
        )
    if fmt == "I":
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opcode
    if fmt == "I*":  # 6-bit shamt + upper funct6
        return (
            (funct7 << 26) | ((imm & 0x3F) << 20) | (rs1 << 15)
            | (f3 << 12) | (rd << 7) | opcode
        )
    if fmt == "S":
        return (
            (((imm >> 5) & 0x7F) << 25) | (rs2 << 20) | (rs1 << 15)
            | (f3 << 12) | ((imm & 0x1F) << 7) | opcode
        )
    if fmt == "B":
        return (
            (((imm >> 12) & 1) << 31) | (((imm >> 5) & 0x3F) << 25)
            | (rs2 << 20) | (rs1 << 15) | (f3 << 12)
            | (((imm >> 1) & 0xF) << 8) | (((imm >> 11) & 1) << 7) | opcode
        )
    if fmt == "U":
        return ((imm & 0xFFFFF) << 12) | (rd << 7) | opcode
    if fmt == "J":
        return (
            (((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21)
            | (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12)
            | (rd << 7) | opcode
        )
    raise ValueError(f"unknown format {fmt!r}")


def _build_decode_table() -> dict[tuple, str]:
    table: dict[tuple, str] = {}
    for mnemonic, (fmt, opcode, funct3, funct7, _, _) in OPCODES.items():
        if fmt == "R" and opcode == _FP:
            # FP: funct7 is the discriminator; funct3 may be rm.
            table[("fp", opcode, funct7, funct3,
                   _FCVT_RS2.get(mnemonic))] = mnemonic
        elif fmt == "R":
            table[("r", opcode, funct3, funct7)] = mnemonic
        elif fmt == "I*":
            table[("istar", opcode, funct3, funct7)] = mnemonic
        elif fmt in ("I", "S", "B"):
            table[(fmt.lower(), opcode, funct3)] = mnemonic
        else:
            table[(fmt.lower(), opcode)] = mnemonic
    return table


_DECODE = _build_decode_table()


def decode(word: int) -> Instruction:
    """Decode a 32-bit instruction word; raises on unknown encodings.

    Register fields the table marks ``-`` for the mnemonic read as 0, so
    a decoded instruction names only the registers it really uses.
    """
    opcode = word & 0x7F
    funct3 = (word >> 12) & 0x7
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F
    imm = 0

    if opcode in (0b0110111, 0b0010111):  # U
        key: tuple | None = ("u", opcode)
        imm = _sext(word >> 12, 20)
    elif opcode == 0b1101111:  # J
        key = ("j", opcode)
        imm = _sext(
            (((word >> 31) & 1) << 20)
            | (((word >> 21) & 0x3FF) << 1)
            | (((word >> 20) & 1) << 11)
            | (((word >> 12) & 0xFF) << 12),
            21,
        )
    elif opcode == _B:
        key = ("b", opcode, funct3)
        imm = _sext(
            (((word >> 31) & 1) << 12)
            | (((word >> 25) & 0x3F) << 5)
            | (((word >> 8) & 0xF) << 1)
            | (((word >> 7) & 1) << 11),
            13,
        )
    elif opcode in (_S, 0b0100111):
        key = ("s", opcode, funct3)
        imm = _sext(((word >> 25) << 5) | ((word >> 7) & 0x1F), 12)
    elif opcode == _FP:
        key = next((k for k in (
            ("fp", opcode, funct7, funct3, rs2),
            ("fp", opcode, funct7, funct3, None),
            ("fp", opcode, funct7, None, None),
        ) if k in _DECODE), None)
    elif opcode in (_R, _RW, 0b0001011):
        key = ("r", opcode, funct3, funct7)
    elif opcode in (_I, _IW) and ("istar", opcode, funct3,
                                  (word >> 26) & 0x3F) in _DECODE:
        key = ("istar", opcode, funct3, (word >> 26) & 0x3F)
        imm = (word >> 20) & 0x3F
    elif opcode in (_I, _IW, _LD, 0b0000111, 0b1100111, 0b1110011):
        key = ("i", opcode, funct3)
        imm = _sext(word >> 20, 12)
    else:
        raise ValueError(f"unknown opcode {opcode:#04x} in word {word:#010x}")
    mnemonic = _DECODE.get(key)
    # ebreak, mret, wfi, ... share ecall's opcode and funct3.
    if mnemonic is None or (mnemonic == "ecall" and imm):
        raise ValueError(f"undefined encoding {word:#010x}")
    files = OPCODES[mnemonic].files
    return Instruction(
        mnemonic,
        rd=(word >> 7) & 0x1F if files[0] != "-" else 0,
        rs1=(word >> 15) & 0x1F if files[1] != "-" else 0,
        rs2=rs2 if files[2] != "-" else 0,
        imm=imm,
    )

"""Two-pass RISC-V assembler for the workload kernels.

Supports the RV64IMFD subset in :mod:`repro.soc.isa`, labels, ABI register
names, the common pseudo-instructions (``li``, ``mv``, ``j``, ``ret``,
``call``, ``nop``, ``beqz``/``bnez``, ``fmv.d``) and data directives
(``.dword``, ``.word``, ``.double``, ``.zero``, ``.align``).  Programs are
written as plain strings in :mod:`repro.soc.programs` -- the "implemented
in C-Code" step of the paper, at one abstraction level lower.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.soc.isa import (
    FREGISTER_NAMES,
    Instruction,
    OPCODES,
    REGISTER_NAMES,
    encode,
)

__all__ = ["Program", "assemble", "AssemblyError"]

_XREG = {name: i for i, name in enumerate(REGISTER_NAMES)}
_XREG.update({f"x{i}": i for i in range(32)})
_XREG["fp"] = 8
_FREG = {name: i for i, name in enumerate(FREGISTER_NAMES)}
_FREG.update({f"f{i}": i for i in range(32)})

class AssemblyError(ValueError):
    """Raised on malformed assembly input."""


def _li_sequence(rd: int, value: int) -> list[Instruction]:
    """Expand ``li rd, value`` for the full 64-bit range.

    The standard recursive expansion: build the upper part, shift left by
    12, add the next 12-bit chunk -- at most lui + addi + 4x(slli+addi).
    """
    value = ((value + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)
    if -2048 <= value < 2048:
        return [Instruction("addi", rd=rd, rs1=0, imm=value)]
    if -(1 << 31) <= value + 0x800 < (1 << 31):
        # lui materializes a sign-extended 32-bit value; the +0x800 guard
        # excludes the [2^31-2048, 2^31) corner where rounding overflows.
        upper = (value + 0x800) >> 12
        lower = value - (upper << 12)
        seq = [Instruction("lui", rd=rd, imm=upper & 0xFFFFF)]
        if lower:
            seq.append(Instruction("addi", rd=rd, rs1=rd, imm=lower))
        return seq
    lower = ((value & 0xFFF) ^ 0x800) - 0x800
    upper = (value - lower) >> 12
    seq = _li_sequence(rd, upper)
    seq.append(Instruction("slli", rd=rd, rs1=rd, imm=12))
    if lower:
        seq.append(Instruction("addi", rd=rd, rs1=rd, imm=lower))
    return seq


@dataclass
class Program:
    """Assembled program image."""

    text_base: int
    data_base: int
    text: list[int] = field(default_factory=list)  # 32-bit words
    data: bytes = b""
    labels: dict[str, int] = field(default_factory=dict)

    @property
    def entry(self) -> int:
        return self.labels.get("_start", self.text_base)

    def size_bytes(self) -> int:
        return 4 * len(self.text) + len(self.data)


def _register(file: str, token: str) -> int:
    """Number of register ``token`` in ``file`` (``x`` or ``f``)."""
    names, kind = (_XREG, "integer") if file == "x" else (_FREG, "FP")
    try:
        return names[token]
    except KeyError:
        raise AssemblyError(f"unknown {kind} register {token!r}") from None


def _tokenize(operands: str) -> list[str]:
    out = []
    for part in operands.replace("(", ",").replace(")", " ").split(","):
        part = part.strip()
        if part:
            out.append(part)
    return out


def _parse_imm(token: str, labels: dict[str, int], pc: int | None = None,
               relative: bool = False) -> int:
    if token in labels:
        return labels[token] - pc if relative else labels[token]
    # %hi/%lo relocations for la-style addressing.
    if token.startswith("%hi(") and token.endswith(")"):
        value = _parse_imm(token[4:-1], labels)
        return (value + 0x800) >> 12
    if token.startswith("%lo(") and token.endswith(")"):
        value = _parse_imm(token[4:-1], labels)
        return ((value & 0xFFF) ^ 0x800) - 0x800
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"cannot parse immediate {token!r}") from None


def _expand_pseudo(mnemonic: str, ops: list[str]) -> list[tuple[str, list[str]]]:
    """Expand pseudo-instructions into base instructions."""
    if mnemonic == "nop":
        return [("addi", ["zero", "zero", "0"])]
    if mnemonic == "mv":
        return [("addi", [ops[0], ops[1], "0"])]
    if mnemonic == "not":
        return [("xori", [ops[0], ops[1], "-1"])]
    if mnemonic == "neg":
        return [("sub", [ops[0], "zero", ops[1]])]
    if mnemonic == "j":
        return [("jal", ["zero", ops[0]])]
    if mnemonic == "jr":
        return [("jalr", ["zero", ops[0], "0"])]
    if mnemonic == "ret":
        return [("jalr", ["zero", "ra", "0"])]
    if mnemonic == "call":
        return [("jal", ["ra", ops[0]])]
    if mnemonic == "beqz":
        return [("beq", [ops[0], "zero", ops[1]])]
    if mnemonic == "bnez":
        return [("bne", [ops[0], "zero", ops[1]])]
    if mnemonic == "blez":
        return [("bge", ["zero", ops[0], ops[1]])]
    if mnemonic == "bgtz":
        return [("blt", ["zero", ops[0], ops[1]])]
    if mnemonic == "ble":
        return [("bge", [ops[1], ops[0], ops[2]])]
    if mnemonic == "bgt":
        return [("blt", [ops[1], ops[0], ops[2]])]
    if mnemonic == "seqz":
        return [("sltiu", [ops[0], ops[1], "1"])]
    if mnemonic == "snez":
        return [("sltu", [ops[0], "zero", ops[1]])]
    if mnemonic == "fmv.d":
        # fsgnj.d is not in the subset; use x-register bounce.
        raise AssemblyError("fmv.d unsupported; copy through fmv.x.d/fmv.d.x")
    return [(mnemonic, ops)]


def _instruction(mnemonic: str, ops: list[str], labels: dict[str, int],
                 pc: int) -> Instruction:
    """Build one base instruction from its operand tokens, by the table.

    Operands are the register fields ``rd, rs1, rs2`` the table gives a
    file for, in that order, then the immediate of non-R formats; loads
    and stores read ``reg, imm(base)`` instead.  Each register must come
    from its field's file.  An omitted I-type immediate reads 0
    (``ecall``, ``jalr rd, rs1``).
    """
    spec = OPCODES[mnemonic]
    files = dict(zip(("rd", "rs1", "rs2"), spec.files))
    names = [name for name, file in files.items() if file != "-"]
    if spec.kind in ("load", "store"):
        names = ["rd" if spec.kind == "load" else "rs2", "rs1"]
        if len(ops) == 3:  # reg, imm(base) -> reg, base, imm
            ops = [ops[0], ops[2], ops[1]]
    n = len(names) + (spec.fmt != "R")
    if not (len(ops) == n or (spec.fmt == "I" and len(ops) == n - 1)):
        raise AssemblyError(
            f"{mnemonic} takes {n} operands, got {len(ops)}: {ops}")
    fields = {name: _register(files[name], token)
              for name, token in zip(names, ops)}
    if len(ops) > len(names):
        token = ops[-1]
        if spec.fmt in ("B", "J"):
            fields["imm"] = _parse_imm(token, labels, pc=pc, relative=True)
        else:
            fields["imm"] = _parse_imm(token, labels)
            if spec.fmt == "U":
                fields["imm"] &= 0xFFFFF
    return Instruction(mnemonic, **fields)


def assemble(
    source: str,
    text_base: int = 0x1000,
    data_base: int = 0x100000,
) -> Program:
    """Assemble source text into a program image.

    ``li`` with large constants expands to lui+addi (32-bit range).
    Label immediates in ``lui``/``addi`` support %hi()/%lo().
    """
    # ---- strip comments, split sections, expand li -------------------- #
    lines: list[tuple[str, str]] = []  # (section, line)
    section = "text"
    for raw in source.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in (".text", ".data"):
            section = line[1:]
            continue
        lines.append((section, line))

    # ---- first pass: layout + labels ----------------------------------- #
    labels: dict[str, int] = {}
    text_items: list[tuple[str, list[str]]] = []
    data_bytes = bytearray()

    def li_length(value: int) -> int:
        return len(_li_sequence(1, value))

    pc = text_base
    pending: list[tuple[str, str]] = []
    for sect, line in lines:
        while ":" in line:
            label, _, rest = line.partition(":")
            label = label.strip()
            if " " in label or not label:
                break
            labels[label] = pc if sect == "text" else data_base + len(data_bytes)
            line = rest.strip()
        if not line:
            continue
        if sect == "data":
            parts = line.split(None, 1)
            directive = parts[0]
            args = parts[1] if len(parts) > 1 else ""
            if directive == ".dword":
                for tok in args.split(","):
                    data_bytes += struct.pack(
                        "<Q", int(tok.strip(), 0) & (2**64 - 1)
                    )
            elif directive == ".word":
                for tok in args.split(","):
                    data_bytes += struct.pack("<I", int(tok.strip(), 0)
                                              & 0xFFFFFFFF)
            elif directive == ".double":
                for tok in args.split(","):
                    data_bytes += struct.pack("<d", float(tok.strip()))
            elif directive == ".zero":
                data_bytes += bytes(int(args, 0))
            elif directive == ".align":
                align = 1 << int(args, 0)
                while len(data_bytes) % align:
                    data_bytes += b"\x00"
            else:
                raise AssemblyError(f"unknown data directive {directive!r}")
            continue
        # text section
        parts = line.split(None, 1)
        mnemonic = parts[0]
        ops = _tokenize(parts[1]) if len(parts) > 1 else []
        if mnemonic == "li":
            value = _parse_imm(ops[1], {})
            pc += 4 * li_length(value)
            text_items.append(("li", ops))
            continue
        if mnemonic == "la":
            pc += 8
            text_items.append(("la", ops))
            continue
        expanded = _expand_pseudo(mnemonic, ops)
        for item in expanded:
            text_items.append(item)
            pc += 4

    # ---- second pass: encode ------------------------------------------- #
    words: list[int] = []
    pc = text_base

    def emit(instr: Instruction) -> None:
        nonlocal pc
        try:
            words.append(encode(instr))
        except ValueError as exc:
            raise AssemblyError(str(exc)) from exc
        pc += 4

    for mnemonic, ops in text_items:
        if mnemonic == "li":
            rd = _register("x", ops[0])
            value = _parse_imm(ops[1], labels)
            for instr in _li_sequence(rd, value):
                emit(instr)
            continue
        if mnemonic == "la":
            rd = _register("x", ops[0])
            value = _parse_imm(ops[1], labels)
            upper = (value + 0x800) >> 12
            lower = ((value & 0xFFF) ^ 0x800) - 0x800
            emit(Instruction("lui", rd=rd, imm=upper & 0xFFFFF))
            emit(Instruction("addi", rd=rd, rs1=rd, imm=lower))
            continue

        if mnemonic not in OPCODES:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}")
        emit(_instruction(mnemonic, ops, labels, pc))

    return Program(
        text_base=text_base,
        data_base=data_base,
        text=words,
        data=bytes(data_bytes),
        labels=labels,
    )

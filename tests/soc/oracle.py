"""Test oracle for the ISS: the per-mnemonic if/elif interpreter.

The engine in :mod:`repro.soc.cpu` decodes each instruction word once
into a record and dispatches from a handler table, with one generic
scoreboard wait and timing commit.  This module is the slow,
obviously-correct counterpart it is pinned against: every step
re-classifies the mnemonic by string tests, walks an if/elif chain that
spells out, per mnemonic, which registers to wait on and what to
compute, and picks the scoreboard to update from a list of FP-destination
mnemonics.  Its scoreboards are two lists, ``_ready_x`` and ``_ready_f``.
It shares the decoder (:func:`repro.soc.isa.decode`), the caches and
the memory with the engine; what it checks is dispatch and timing.

One fix is shared with the engine: a load or move into ``f0`` (``fld``,
``fmv.d.x``) marks the FP scoreboard like any other FP destination.

Used by ``tests/soc/test_engine_equivalence.py`` (lockstep equality on
every kernel, fuzzed words and single-bit flips, and an SEU campaign).
"""

from __future__ import annotations

import struct

from repro.soc.cpu import CPU, LATENCY, REDIRECT_PENALTY
from repro.soc.isa import Instruction, decode

__all__ = ["OracleCPU"]

_MASK64 = (1 << 64) - 1


def _to_signed(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


def _to_signed32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >> 31 else value


def _f2b(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _b2f(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b & _MASK64))[0]


class OracleCPU(CPU):
    """The reference interpreter; loads and runs like :class:`CPU`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ready_x = [0] * 32
        self._ready_f = [0] * 32
        self._decode_cache: dict[int, Instruction] = {}

    # ------------------------------------------------------------------ #
    def _wait_x(self, reg: int, now: int) -> int:
        return max(now, self._ready_x[reg])

    def _wait_f(self, reg: int, now: int) -> int:
        return max(now, self._ready_f[reg])

    def _classify(self, m: str) -> str:
        if m in ("lb", "lh", "lw", "ld", "lbu", "lhu", "lwu", "fld"):
            return "load"
        if m in ("sb", "sh", "sw", "sd", "fsd"):
            return "store"
        if m.startswith("b") or m in ("jal", "jalr"):
            return "branch"
        if m.startswith("mul"):
            return "mul"
        if m.startswith(("div", "rem")):
            return "div"
        if m == "fdiv.d":
            return "fp_div"
        if m in ("feq.d", "flt.d", "fle.d", "fmv.x.d", "fmv.d.x"):
            return "fp_short"
        if m.startswith("f"):
            return "fp"
        return "alu"

    def step(self) -> None:
        """Execute one instruction, updating state and timing."""
        stats = self.stats
        now = stats.cycles

        # Fetch (I-cache).
        icache_stall = self.caches.fetch(self.pc)
        if icache_stall:
            stats.stall_cycles_icache += icache_stall
            stats.class_counts["l1i_miss"] = stats.count("l1i_miss") + 1
            now += icache_stall

        word = self.memory.load_u(self.pc, 4)
        instr = self._decode_cache.get(word)
        if instr is None:
            instr = decode(word)
            self._decode_cache[word] = instr
        m = instr.mnemonic
        kind = self._classify(m)
        stats.class_counts[kind] = stats.count(kind) + 1
        stats.instructions += 1

        issue = now
        next_pc = self.pc + 4
        redirect = False

        x, f = self.x, self.f
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm

        # ---------------- integer ALU ----------------------------------- #
        if m == "lui":
            issue = now
            x[rd] = _to_signed(imm << 12)
        elif m == "auipc":
            x[rd] = _to_signed(self.pc + (imm << 12))
        elif m in ("addi", "slti", "sltiu", "xori", "ori", "andi",
                   "slli", "srli", "srai", "addiw", "slliw", "srliw",
                   "sraiw"):
            issue = self._wait_x(rs1, now)
            a = x[rs1]
            if m == "addi":
                x[rd] = _to_signed(a + imm)
            elif m == "slti":
                x[rd] = int(a < imm)
            elif m == "sltiu":
                x[rd] = int((a & _MASK64) < (imm & _MASK64))
            elif m == "xori":
                x[rd] = _to_signed(a ^ imm)
            elif m == "ori":
                x[rd] = _to_signed(a | imm)
            elif m == "andi":
                x[rd] = _to_signed(a & imm)
            elif m == "slli":
                x[rd] = _to_signed(a << imm)
            elif m == "srli":
                x[rd] = _to_signed((a & _MASK64) >> imm)
            elif m == "srai":
                x[rd] = a >> imm
            elif m == "addiw":
                x[rd] = _to_signed32(a + imm)
            elif m == "slliw":
                x[rd] = _to_signed32(a << imm)
            elif m == "srliw":
                x[rd] = _to_signed32((a & 0xFFFFFFFF) >> imm)
            else:  # sraiw
                x[rd] = _to_signed32(_to_signed32(a) >> imm)
        elif m in ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra",
                   "or", "and", "addw", "subw", "sllw", "srlw", "sraw",
                   "mul", "mulh", "mulw", "div", "divu", "rem", "remu",
                   "cpop"):
            issue = max(self._wait_x(rs1, now), self._wait_x(rs2, now))
            a, b = x[rs1], x[rs2]
            if m == "add":
                x[rd] = _to_signed(a + b)
            elif m == "sub":
                x[rd] = _to_signed(a - b)
            elif m == "sll":
                x[rd] = _to_signed(a << (b & 63))
            elif m == "slt":
                x[rd] = int(a < b)
            elif m == "sltu":
                x[rd] = int((a & _MASK64) < (b & _MASK64))
            elif m == "xor":
                x[rd] = _to_signed(a ^ b)
            elif m == "srl":
                x[rd] = _to_signed((a & _MASK64) >> (b & 63))
            elif m == "sra":
                x[rd] = a >> (b & 63)
            elif m == "or":
                x[rd] = _to_signed(a | b)
            elif m == "and":
                x[rd] = _to_signed(a & b)
            elif m == "addw":
                x[rd] = _to_signed32(a + b)
            elif m == "subw":
                x[rd] = _to_signed32(a - b)
            elif m == "sllw":
                x[rd] = _to_signed32(a << (b & 31))
            elif m == "srlw":
                x[rd] = _to_signed32((a & 0xFFFFFFFF) >> (b & 31))
            elif m == "sraw":
                x[rd] = _to_signed32(_to_signed32(a) >> (b & 31))
            elif m == "mul":
                x[rd] = _to_signed(a * b)
            elif m == "mulh":
                x[rd] = _to_signed((a * b) >> 64)
            elif m == "mulw":
                x[rd] = _to_signed32(a * b)
            elif m in ("div", "divu", "rem", "remu"):
                if b == 0:
                    x[rd] = -1 if m in ("div", "divu") else a
                else:
                    if m == "div":
                        q = abs(a) // abs(b)
                        x[rd] = -q if (a < 0) != (b < 0) else q
                    elif m == "divu":
                        x[rd] = (a & _MASK64) // (b & _MASK64)
                    elif m == "rem":
                        q = abs(a) % abs(b)
                        x[rd] = -q if a < 0 else q
                    else:
                        x[rd] = (a & _MASK64) % (b & _MASK64)
                    x[rd] = _to_signed(x[rd])
            elif m == "cpop":
                if not self.popcount_extension:
                    raise ValueError(
                        "cpop executed without popcount_extension -- the "
                        "base RISC-V ISA has no popcount instruction"
                    )
                x[rd] = bin(a & _MASK64).count("1")
        # ---------------- memory ---------------------------------------- #
        elif kind == "load":
            issue = self._wait_x(rs1, now)
            addr = (x[rs1] + imm) & _MASK64
            stall = self.caches.data_access(addr, write=False)
            if stall:
                stats.stall_cycles_dcache += stall
                stats.class_counts["l1d_miss"] = stats.count("l1d_miss") + 1
            issue += stall
            if m == "fld":
                f[rd] = self.memory.load_double(addr)
            elif m == "ld":
                x[rd] = self.memory.load_s(addr, 8)
            elif m == "lw":
                x[rd] = self.memory.load_s(addr, 4)
            elif m == "lwu":
                x[rd] = self.memory.load_u(addr, 4)
            elif m == "lh":
                x[rd] = self.memory.load_s(addr, 2)
            elif m == "lhu":
                x[rd] = self.memory.load_u(addr, 2)
            elif m == "lb":
                x[rd] = self.memory.load_s(addr, 1)
            else:  # lbu
                x[rd] = self.memory.load_u(addr, 1)
        elif kind == "store":
            issue = self._wait_x(rs1, now)
            if m == "fsd":
                issue = max(issue, self._wait_f(rs2, now))
            else:
                issue = max(issue, self._wait_x(rs2, now))
            addr = (x[rs1] + imm) & _MASK64
            stall = self.caches.data_access(addr, write=True)
            if stall:
                stats.stall_cycles_dcache += stall
                stats.class_counts["l1d_miss"] = stats.count("l1d_miss") + 1
            issue += stall
            if m == "fsd":
                self.memory.store_double(addr, f[rs2])
            elif m == "sd":
                self.memory.store_u(addr, 8, x[rs2])
            elif m == "sw":
                self.memory.store_u(addr, 4, x[rs2])
            elif m == "sh":
                self.memory.store_u(addr, 2, x[rs2])
            else:  # sb
                self.memory.store_u(addr, 1, x[rs2])
        # ---------------- control flow ----------------------------------- #
        elif m in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            issue = max(self._wait_x(rs1, now), self._wait_x(rs2, now))
            a, b = x[rs1], x[rs2]
            taken = {
                "beq": a == b,
                "bne": a != b,
                "blt": a < b,
                "bge": a >= b,
                "bltu": (a & _MASK64) < (b & _MASK64),
                "bgeu": (a & _MASK64) >= (b & _MASK64),
            }[m]
            if taken:
                next_pc = self.pc + imm
                redirect = True
        elif m == "jal":
            x[rd] = self.pc + 4
            next_pc = self.pc + imm
            redirect = True
        elif m == "jalr":
            issue = self._wait_x(rs1, now)
            target = (x[rs1] + imm) & ~1
            x[rd] = self.pc + 4
            next_pc = target
            redirect = True
        elif m == "ecall":
            self.halted = True
            self.exit_code = x[10]
        # ---------------- floating point ---------------------------------- #
        elif m in ("fadd.d", "fsub.d", "fmul.d", "fdiv.d"):
            issue = max(self._wait_f(rs1, now), self._wait_f(rs2, now))
            a, b = f[rs1], f[rs2]
            if m == "fadd.d":
                f[rd] = a + b
            elif m == "fsub.d":
                f[rd] = a - b
            elif m == "fmul.d":
                f[rd] = a * b
            else:
                f[rd] = a / b if b != 0 else float("inf")
        elif m in ("feq.d", "flt.d", "fle.d"):
            issue = max(self._wait_f(rs1, now), self._wait_f(rs2, now))
            a, b = f[rs1], f[rs2]
            x[rd] = int({"feq.d": a == b, "flt.d": a < b,
                         "fle.d": a <= b}[m])
        elif m == "fmv.x.d":
            issue = self._wait_f(rs1, now)
            x[rd] = _to_signed(_f2b(f[rs1]))
        elif m == "fmv.d.x":
            issue = self._wait_x(rs1, now)
            f[rd] = _b2f(x[rs1])
        elif m == "fcvt.w.d":
            issue = self._wait_f(rs1, now)
            x[rd] = _to_signed32(int(f[rs1]))
        elif m in ("fcvt.d.w", "fcvt.d.l"):
            issue = self._wait_x(rs1, now)
            f[rd] = float(x[rs1] if m == "fcvt.d.l" else _to_signed32(x[rs1]))
        else:  # pragma: no cover - decoder guarantees coverage
            raise ValueError(f"unimplemented instruction {m!r}")

        x[0] = 0  # x0 is hard-wired

        # ---------------- timing commit ----------------------------------- #
        stall = issue - now
        stats.stall_cycles_raw += stall
        latency = LATENCY.get(kind, 1)
        # f0 is an ordinary register: only x0 is exempt from the scoreboard.
        if m in ("fld", "fadd.d", "fsub.d", "fmul.d", "fdiv.d",
                 "fmv.d.x", "fcvt.d.w", "fcvt.d.l"):
            self._ready_f[rd] = issue + latency
        elif rd != 0:
            self._ready_x[rd] = issue + latency
        cycles = issue + 1
        if redirect:
            cycles += REDIRECT_PENALTY
            stats.redirect_cycles += REDIRECT_PENALTY
        stats.cycles = cycles
        self.pc = next_pc

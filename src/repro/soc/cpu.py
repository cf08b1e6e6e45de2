"""RV64 ISS with a Rocket-class 5-stage in-order timing model.

Functional execution is exact (64-bit two's-complement integer, IEEE-754
double for the D subset); timing follows a scoreboard abstraction of an
in-order single-issue pipeline:

* one instruction issues per cycle, but not before its source registers
  are ready (``ready_at`` per register);
* result latencies: ALU 1, load 2 (the classic load-use bubble), MUL 4,
  DIV 34 (iterative), FP add/sub/mul 4, FP divide 20, FP compare/move 2;
* taken branches and jumps redirect fetch: +2 cycles;
* I-cache and D-cache miss stalls come from the cache hierarchy.

Decode once, dispatch by table: :data:`repro.soc.isa.OPCODES` says what a
mnemonic is (encoding, operand register files, timing class).  Each
fetched word becomes, once, a :class:`Decoded` record (handler from
:data:`HANDLERS`, latency, fields, scoreboard slots), so
:meth:`CPU.step` holds no per-mnemonic code.  The decode cache is keyed
by the *word*, not the PC: an SEU that flips an instruction in memory
(:meth:`~repro.soc.memory.Memory.flip_bit`) changes the word fetched
next, so the corrupted instruction decodes afresh.

The optional ``popcount_extension`` enables the custom ``cpop``
instruction for the ABL-1 ablation ("hardware support would reduce the
computation time significantly", paper Section VI-C).
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.errors import HangError, WorkloadError
from repro.soc.assembler import Program
from repro.soc.cache import CacheHierarchy
from repro.soc.isa import OPCODES, decode
from repro.soc.memory import Memory

__all__ = ["CPU", "ExecutionStats", "HaltError"]

_MASK64 = (1 << 64) - 1

#: Result latency in cycles per instruction class.
LATENCY = {
    "alu": 1,
    "load": 2,
    "store": 1,
    "branch": 1,
    "mul": 4,
    "div": 34,
    "fp": 4,
    "fp_div": 20,
    "fp_short": 2,
}

#: Fetch-redirect penalty for taken branches/jumps.
REDIRECT_PENALTY = 2


class HaltError(WorkloadError):
    """Raised when execution exceeds the instruction budget."""


@dataclass
class ExecutionStats:
    """Cycle/instruction accounting for one run."""

    cycles: int = 0
    instructions: int = 0
    class_counts: dict[str, int] = field(default_factory=dict)
    stall_cycles_raw: int = 0
    stall_cycles_icache: int = 0
    stall_cycles_dcache: int = 0
    redirect_cycles: int = 0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def count(self, kind: str) -> int:
        return self.class_counts.get(kind, 0)

    def profile(self) -> dict[str, float]:
        """Per-cycle event rates for the activity-based power model."""
        c = max(self.cycles, 1)
        loads = self.count("load")
        stores = self.count("store")
        return {
            "alu_per_cycle": (self.count("alu") + self.count("branch")) / c,
            "mul_per_cycle": (self.count("mul") + self.count("div")) / c,
            "mem_per_cycle": (loads + stores) / c,
            "fetch_per_cycle": self.instructions / c,
            "regread_per_cycle": 1.6 * self.instructions / c,
            "regwrite_per_cycle": 0.8 * self.instructions / c,
            "l1d_miss_per_cycle": self.count("l1d_miss") / c,
            "l1i_miss_per_cycle": self.count("l1i_miss") / c,
        }


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


# ---------------------------------------------------------------------- #
# Handlers: ``handler(cpu, op, pc)`` executes one decoded instruction and
# returns the redirect target of a taken branch or jump, else None.
# Timing is not theirs: step() waits, stalls and commits for them.
# ---------------------------------------------------------------------- #
def _x_rr(fn):
    def run(cpu, op, pc):
        x = cpu.x
        x[op.rd] = fn(x[op.rs1], x[op.rs2])
    return run


def _x_ri(fn):
    def run(cpu, op, pc):
        x = cpu.x
        x[op.rd] = fn(x[op.rs1], op.imm)
    return run


def _fp(dst, fn):
    def run(cpu, op, pc):
        f = cpu.f
        getattr(cpu, dst)[op.rd] = fn(f[op.rs1], f[op.rs2])
    return run


def _branch(taken):
    def run(cpu, op, pc):
        x = cpu.x
        if taken(x[op.rs1], x[op.rs2]):
            return pc + op.imm
    return run


def _load(size, signed):
    def run(cpu, op, pc):
        read = cpu.memory.load_s if signed else cpu.memory.load_u
        cpu.x[op.rd] = read((cpu.x[op.rs1] + op.imm) & _MASK64, size)
    return run


def _store(size):
    def run(cpu, op, pc):
        x = cpu.x
        cpu.memory.store_u((x[op.rs1] + op.imm) & _MASK64, size, x[op.rs2])
    return run


def _fld(cpu, op, pc):
    cpu.f[op.rd] = cpu.memory.load_double((cpu.x[op.rs1] + op.imm) & _MASK64)


def _fsd(cpu, op, pc):
    cpu.memory.store_double((cpu.x[op.rs1] + op.imm) & _MASK64, cpu.f[op.rs2])


def _lui(cpu, op, pc):
    cpu.x[op.rd] = _to_signed(op.imm << 12)


def _auipc(cpu, op, pc):
    cpu.x[op.rd] = _to_signed(pc + (op.imm << 12))


def _jal(cpu, op, pc):
    cpu.x[op.rd] = pc + 4
    return pc + op.imm


def _jalr(cpu, op, pc):
    target = (cpu.x[op.rs1] + op.imm) & ~1
    cpu.x[op.rd] = pc + 4
    return target


def _ecall(cpu, op, pc):
    cpu.halted = True
    cpu.exit_code = cpu.x[10]


def _cpop(cpu, op, pc):
    if not cpu.popcount_extension:
        raise ValueError(
            "cpop executed without popcount_extension -- the "
            "base RISC-V ISA has no popcount instruction"
        )
    cpu.x[op.rd] = (cpu.x[op.rs1] & _MASK64).bit_count()


def _div(a, b):
    if b == 0:
        return -1
    q = abs(a) // abs(b)
    return _to_signed(-q if (a < 0) != (b < 0) else q)


def _rem(a, b):
    if b == 0:
        return a
    q = abs(a) % abs(b)
    return _to_signed(-q if a < 0 else q)


def _move(dst, src, convert):
    """Handler copying ``convert(src[rs1])`` to ``dst[rd]`` across files."""
    def run(cpu, op, pc):
        getattr(cpu, dst)[op.rd] = convert(getattr(cpu, src)[op.rs1])
    return run


#: Semantics per mnemonic; the keys are exactly those of ``OPCODES``.
HANDLERS: dict[str, Callable] = {
    "lui": _lui,
    "auipc": _auipc,
    "jal": _jal,
    "jalr": _jalr,
    "beq": _branch(operator.eq),
    "bne": _branch(operator.ne),
    "blt": _branch(operator.lt),
    "bge": _branch(operator.ge),
    "bltu": _branch(lambda a, b: (a & _MASK64) < (b & _MASK64)),
    "bgeu": _branch(lambda a, b: (a & _MASK64) >= (b & _MASK64)),
    "lb": _load(1, True),
    "lh": _load(2, True),
    "lw": _load(4, True),
    "ld": _load(8, True),
    "lbu": _load(1, False),
    "lhu": _load(2, False),
    "lwu": _load(4, False),
    "sb": _store(1),
    "sh": _store(2),
    "sw": _store(4),
    "sd": _store(8),
    "addi": _x_ri(lambda a, i: _to_signed(a + i)),
    "slti": _x_ri(lambda a, i: int(a < i)),
    "sltiu": _x_ri(lambda a, i: int((a & _MASK64) < (i & _MASK64))),
    "xori": _x_ri(lambda a, i: _to_signed(a ^ i)),
    "ori": _x_ri(lambda a, i: _to_signed(a | i)),
    "andi": _x_ri(lambda a, i: _to_signed(a & i)),
    "slli": _x_ri(lambda a, i: _to_signed(a << i)),
    "srli": _x_ri(lambda a, i: _to_signed((a & _MASK64) >> i)),
    "srai": _x_ri(lambda a, i: a >> i),
    "add": _x_rr(lambda a, b: _to_signed(a + b)),
    "sub": _x_rr(lambda a, b: _to_signed(a - b)),
    "sll": _x_rr(lambda a, b: _to_signed(a << (b & 63))),
    "slt": _x_rr(lambda a, b: int(a < b)),
    "sltu": _x_rr(lambda a, b: int((a & _MASK64) < (b & _MASK64))),
    "xor": _x_rr(lambda a, b: _to_signed(a ^ b)),
    "srl": _x_rr(lambda a, b: _to_signed((a & _MASK64) >> (b & 63))),
    "sra": _x_rr(lambda a, b: a >> (b & 63)),
    "or": _x_rr(lambda a, b: _to_signed(a | b)),
    "and": _x_rr(lambda a, b: _to_signed(a & b)),
    "addiw": _x_ri(lambda a, i: _to_signed32(a + i)),
    "slliw": _x_ri(lambda a, i: _to_signed32(a << i)),
    "srliw": _x_ri(lambda a, i: _to_signed32((a & 0xFFFFFFFF) >> i)),
    "sraiw": _x_ri(lambda a, i: _to_signed32(_to_signed32(a) >> i)),
    "addw": _x_rr(lambda a, b: _to_signed32(a + b)),
    "subw": _x_rr(lambda a, b: _to_signed32(a - b)),
    "sllw": _x_rr(lambda a, b: _to_signed32(a << (b & 31))),
    "srlw": _x_rr(lambda a, b: _to_signed32((a & 0xFFFFFFFF) >> (b & 31))),
    "sraw": _x_rr(lambda a, b: _to_signed32(_to_signed32(a) >> (b & 31))),
    "ecall": _ecall,
    "mul": _x_rr(lambda a, b: _to_signed(a * b)),
    "mulh": _x_rr(lambda a, b: _to_signed((a * b) >> 64)),
    "div": _x_rr(_div),
    "divu": _x_rr(lambda a, b: _to_signed((a & _MASK64) // (b & _MASK64))
                  if b else -1),
    "rem": _x_rr(_rem),
    "remu": _x_rr(lambda a, b: _to_signed((a & _MASK64) % (b & _MASK64))
                  if b else a),
    "mulw": _x_rr(lambda a, b: _to_signed32(a * b)),
    "fld": _fld,
    "fsd": _fsd,
    "fadd.d": _fp("f", operator.add),
    "fsub.d": _fp("f", operator.sub),
    "fmul.d": _fp("f", operator.mul),
    "fdiv.d": _fp("f", lambda a, b: a / b if b != 0 else float("inf")),
    "feq.d": _fp("x", lambda a, b: int(a == b)),
    "flt.d": _fp("x", lambda a, b: int(a < b)),
    "fle.d": _fp("x", lambda a, b: int(a <= b)),
    "fmv.x.d": _move("x", "f", lambda v: _to_signed(_f2b(v))),
    "fmv.d.x": _move("f", "x", _b2f),
    "fcvt.w.d": _move("x", "f", lambda v: _to_signed32(int(v))),
    "fcvt.d.w": _move("f", "x", lambda v: float(_to_signed32(v))),
    "fcvt.d.l": _move("f", "x", float),
    "cpop": _cpop,
}


class Decoded(NamedTuple):
    """One instruction word, decoded once: all ``step`` needs to run it.

    ``sources``/``dest`` are the scoreboard slots read and written (x0,
    always ready, is neither); ``access`` is the D-cache access: None,
    False (load) or True (store).
    """

    handler: Callable
    kind: str
    latency: int
    rd: int
    rs1: int
    rs2: int
    imm: int
    sources: tuple[int, ...]
    dest: int | None
    access: bool | None


def _slot(file: str, reg: int) -> int | None:
    """Scoreboard slot of one operand: x0-x31 at 0-31, f0-f31 at 32-63."""
    if file == "f":
        return 32 + reg
    return reg if file == "x" and reg else None


def _decode(word: int) -> Decoded:
    instr = decode(word)
    spec = OPCODES[instr.mnemonic]
    files = spec.files
    reads = (_slot(files[1], instr.rs1), _slot(files[2], instr.rs2))
    return Decoded(
        handler=HANDLERS[instr.mnemonic],
        kind=spec.kind,
        latency=LATENCY[spec.kind],
        rd=instr.rd, rs1=instr.rs1, rs2=instr.rs2, imm=instr.imm,
        sources=tuple(s for s in reads if s is not None),
        dest=_slot(files[0], instr.rd),
        access={"load": False, "store": True}.get(spec.kind),
    )


class CPU:
    """One in-order RV64 hart with caches."""

    def __init__(
        self,
        memory: Memory | None = None,
        caches: CacheHierarchy | None = None,
        popcount_extension: bool = False,
    ):
        self.memory = memory or Memory()
        self.caches = caches or CacheHierarchy()
        self.popcount_extension = popcount_extension
        self.x = [0] * 32
        self.f = [0.0] * 32
        self.pc = 0
        self.halted = False
        self.exit_code = 0
        self.stats = ExecutionStats()
        self._ready = [0] * 64  # cycle each scoreboard slot is ready
        self._decoded: dict[int, Decoded] = {}

    # ------------------------------------------------------------------ #
    def load_program(self, program: Program) -> None:
        """Copy a program image into memory and point PC at its entry."""
        text = b"".join(w.to_bytes(4, "little") for w in program.text)
        self.memory.store_bytes(program.text_base, text)
        if program.data:
            self.memory.store_bytes(program.data_base, program.data)
        self.pc = program.entry
        self.x[2] = 0x7FFF000  # stack pointer

    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """Execute one instruction, updating state and timing."""
        stats = self.stats
        counts = stats.class_counts
        pc = self.pc
        now = stats.cycles

        # Fetch (I-cache) and decode, once per distinct word.
        stall = self.caches.fetch(pc)
        if stall:
            stats.stall_cycles_icache += stall
            counts["l1i_miss"] = counts.get("l1i_miss", 0) + 1
            now += stall
        word = self.memory.load_u(pc, 4)
        op = self._decoded.get(word)
        if op is None:
            op = self._decoded[word] = _decode(word)
        counts[op.kind] = counts.get(op.kind, 0) + 1
        stats.instructions += 1

        # Issue once every source is ready; memory ops add D-cache stall.
        ready = self._ready
        issue = now
        for slot in op.sources:
            if ready[slot] > issue:
                issue = ready[slot]
        if op.access is not None:
            stall = self.caches.data_access(
                (self.x[op.rs1] + op.imm) & _MASK64, write=op.access)
            if stall:
                stats.stall_cycles_dcache += stall
                counts["l1d_miss"] = counts.get("l1d_miss", 0) + 1
                issue += stall

        target = op.handler(self, op, pc)
        self.x[0] = 0  # x0 is hard-wired

        # Timing commit and PC update.
        stats.stall_cycles_raw += issue - now
        if op.dest is not None:
            ready[op.dest] = issue + op.latency
        if target is None:
            stats.cycles = issue + 1
            self.pc = pc + 4
        else:
            stats.cycles = issue + 1 + REDIRECT_PENALTY
            stats.redirect_cycles += REDIRECT_PENALTY
            self.pc = target

    # ------------------------------------------------------------------ #
    def run(
        self,
        max_instructions: int = 50_000_000,
        max_cycles: int | None = None,
    ) -> ExecutionStats:
        """Run until ECALL; returns the statistics.

        ``max_cycles`` is a watchdog for fault-injection campaigns: a
        corrupted loop bound usually still retires instructions, so the
        instruction budget alone cannot distinguish "slow" from "stuck".
        Tripping it raises :class:`~repro.errors.HangError` (the *hang*
        outcome bucket) rather than :class:`HaltError` (the *crash*
        bucket).
        """
        while not self.halted:
            if self.stats.instructions >= max_instructions:
                raise HaltError(
                    f"exceeded {max_instructions} instructions without ECALL"
                )
            if max_cycles is not None and self.stats.cycles > max_cycles:
                raise HangError(
                    f"cycle watchdog expired: {self.stats.cycles} > "
                    f"{max_cycles} cycles without ECALL"
                )
            self.step()
        return self.stats

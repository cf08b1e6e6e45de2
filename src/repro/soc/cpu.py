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
mnemonic is (encoding, operand register files, timing class).  What it
*does* is written once per mnemonic, as a source template in
:data:`SEMANTICS` (``{d} = {a} + {b}`` and the like).  The word at each
fetched PC becomes, once, a :class:`Decoded` record (handler, latency,
fields, scoreboard slots); :data:`HANDLERS` holds one handler per
mnemonic, built from the templates with one compile at import.
:meth:`CPU.step` runs one record: fetch, the generic scoreboard wait,
the handler, the timing commit.  The decode cache is keyed by the *PC*
and kept per memory page (:attr:`Memory.decoded
<repro.soc.memory.Memory.decoded>`): every write to a page -- a store
into text, or an SEU from :meth:`~repro.soc.memory.Memory.flip_bit` --
drops that page's records, so the changed instruction decodes afresh.

:meth:`CPU.run` steps cold code and runs hot code as translated basic
blocks.  A block runs from an entry PC up to and including the first
branch, jump, ``ecall`` or store (a store may write the text that
follows it), at most :data:`_MAX_BLOCK` instructions, and stops before
an undecodable word.  It is compiled, with the same templates, into one
Python function that does, instruction by instruction and in program
order, exactly what :meth:`CPU.step` does: operands, latencies,
scoreboard slots, D-access kinds and I-cache line changes are literals;
the cycle and stall counters live in locals and are written back when
the block is left.  The exactness rules:

* *Fetch*: the first instruction and each one that starts a new L1I
  line call :meth:`CacheHierarchy.fetch
  <repro.soc.cache.CacheHierarchy.fetch>` (the first one only when the
  line is not the L1I's last-accessed line, the same hit
  :meth:`Cache.access <repro.soc.cache.Cache.access>` would take);
  the others count one L1I access, since nothing but fetch touches the
  L1I and the line is still its last-accessed one.  A load's D-access
  takes the same last-line hit, else calls ``data_access``; a store
  always calls it.
* *Boundaries*: after each instruction but the last the block is left
  as soon as ``cycles >= min(until_cycle, max_cycles + 1)``, so the
  generic loop applies the pause, budget and watchdog checks in their
  usual order at that boundary.  A block is entered only when all of its
  instructions fit in the instruction budget.
* *Raising instructions* (``fcvt.w.d`` of NaN/inf, ``cpop`` without the
  extension) are guarded: when the guard trips the block is left before
  the instruction and the generic loop steps it, which raises with
  exactly the state ``step`` leaves.  An undecodable word is stepped
  the same way.

Translation happens on a PC's second entry, so one-shot code (start-up,
code reached only after a fault) is stepped and never pays the ~1 ms
compile.  A translated block is kept in :attr:`Memory.blocks
<repro.soc.memory.Memory.blocks>` and dropped like a decoded record when
one of its pages is written.  Compiled code is also shared process-wide
by (entry PC, words, line sizes), in a cache bounded by
:data:`_CODE_CAPACITY`, so each fresh machine of one image (campaign
injections, repeated runs) reuses it.  It holds code only: every run
executes every instruction.  ``tests/soc/oracle.py`` keeps the stepping
interpreter the engine is held ``==`` to.

The optional ``popcount_extension`` enables the custom ``cpop``
instruction for the ABL-1 ablation ("hardware support would reduce the
computation time significantly", paper Section VI-C).
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from functools import lru_cache
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


# ---------------------------------------------------------------------- #
# Semantics: one source template per mnemonic.  Placeholders: {d} the
# destination register, {a}/{b} the rs1/rs2 operands (in the register
# files OPCODES names), {i} the immediate, {pc} the instruction's PC,
# {addr} its memory address and {jump} "redirect to" (the expression that
# follows).  The names x, f, mem and cpu are the register files, the
# memory and the hart.  Timing is not theirs: step() and the translated
# blocks wait, stall and commit around them.
# ---------------------------------------------------------------------- #
def _to_signed(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


def _f2b(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _b2f(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b & _MASK64))[0]


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


_INF = math.inf
_isfinite = math.isfinite
_CPOP_ERROR = ("cpop executed without popcount_extension -- the base "
               "RISC-V ISA has no popcount instruction")


def _s64(e: str) -> str:
    """``e`` wrapped to a signed 64-bit value, inline."""
    return (f"((({e}) + 0x8000000000000000) & 0xFFFFFFFFFFFFFFFF)"
            " - 0x8000000000000000")


def _s32(e: str) -> str:
    """``e`` wrapped to a signed 32-bit value, inline."""
    return f"((({e}) + 0x80000000) & 0xFFFFFFFF) - 0x80000000"


def _u64(e: str) -> str:
    return f"(({e}) & 0xFFFFFFFFFFFFFFFF)"


def _set(e: str) -> str:
    return "{d} = " + e


def _flag(cond: str) -> str:
    return "{d} = 1 if " + cond + " else 0"


def _branch(cond: str) -> str:
    return "if " + cond + ": {jump}{pc} + {i}"


_UA, _UB = _u64("{a}"), _u64("{b}")

#: Semantics per mnemonic; the keys are exactly those of ``OPCODES``.
SEMANTICS: dict[str, str] = {
    "lui": _set(_s64("{i} << 12")),
    "auipc": _set(_s64("{pc} + ({i} << 12)")),
    "jal": "{d} = {pc} + 4\n{jump}{pc} + {i}",
    "jalr": "tgt = ({a} + {i}) & -2\n{d} = {pc} + 4\n{jump}tgt",
    "beq": _branch("{a} == {b}"),
    "bne": _branch("{a} != {b}"),
    "blt": _branch("{a} < {b}"),
    "bge": _branch("{a} >= {b}"),
    "bltu": _branch(f"{_UA} < {_UB}"),
    "bgeu": _branch(f"{_UA} >= {_UB}"),
    "lb": _set("mem.load_s({addr}, 1)"),
    "lh": _set("mem.load_s({addr}, 2)"),
    "lw": _set("mem.load_s({addr}, 4)"),
    "ld": _set("mem.load_s({addr}, 8)"),
    "lbu": _set("mem.load_u({addr}, 1)"),
    "lhu": _set("mem.load_u({addr}, 2)"),
    "lwu": _set("mem.load_u({addr}, 4)"),
    "sb": "mem.store_u({addr}, 1, {b})",
    "sh": "mem.store_u({addr}, 2, {b})",
    "sw": "mem.store_u({addr}, 4, {b})",
    "sd": "mem.store_u({addr}, 8, {b})",
    "addi": _set(_s64("{a} + {i}")),
    "slti": _flag("{a} < {i}"),
    "sltiu": _flag(f"{_UA} < {_u64('{i}')}"),
    "xori": _set(_s64("{a} ^ {i}")),
    "ori": _set(_s64("{a} | {i}")),
    "andi": _set(_s64("{a} & {i}")),
    "slli": _set(_s64("{a} << {i}")),
    "srli": _set(_s64(f"{_UA} >> {{i}}")),
    "srai": _set("{a} >> {i}"),
    "add": _set(_s64("{a} + {b}")),
    "sub": _set(_s64("{a} - {b}")),
    "sll": _set(_s64("{a} << ({b} & 63)")),
    "slt": _flag("{a} < {b}"),
    "sltu": _flag(f"{_UA} < {_UB}"),
    "xor": _set(_s64("{a} ^ {b}")),
    "srl": _set(_s64(f"{_UA} >> ({{b}} & 63)")),
    "sra": _set("{a} >> ({b} & 63)"),
    "or": _set(_s64("{a} | {b}")),
    "and": _set(_s64("{a} & {b}")),
    "addiw": _set(_s32("{a} + {i}")),
    "slliw": _set(_s32("{a} << {i}")),
    "srliw": _set(_s32("({a} & 0xFFFFFFFF) >> {i}")),
    "sraiw": _set(_s32(_s32("{a}") + " >> {i}")),
    "addw": _set(_s32("{a} + {b}")),
    "subw": _set(_s32("{a} - {b}")),
    "sllw": _set(_s32("{a} << ({b} & 31)")),
    "srlw": _set(_s32("({a} & 0xFFFFFFFF) >> ({b} & 31)")),
    "sraw": _set(_s32(_s32("{a}") + " >> ({b} & 31)")),
    "ecall": "cpu.halted = True\ncpu.exit_code = x[10]",
    "mul": _set(_s64("{a} * {b}")),
    "mulh": _set(_s64("({a} * {b}) >> 64")),
    "div": _set("_div({a}, {b})"),
    "divu": _set(_s64(f"{_UA} // {_UB}") + " if {b} else -1"),
    "rem": _set("_rem({a}, {b})"),
    "remu": _set(_s64(f"{_UA} % {_UB}") + " if {b} else {a}"),
    "mulw": _set(_s32("{a} * {b}")),
    "fld": _set("mem.load_double({addr})"),
    "fsd": "mem.store_double({addr}, {b})",
    "fadd.d": _set("{a} + {b}"),
    "fsub.d": _set("{a} - {b}"),
    "fmul.d": _set("{a} * {b}"),
    "fdiv.d": _set("{a} / {b} if {b} != 0 else _INF"),
    "feq.d": _flag("{a} == {b}"),
    "flt.d": _flag("{a} < {b}"),
    "fle.d": _flag("{a} <= {b}"),
    "fmv.x.d": _set(_s64("_f2b({a})")),
    "fmv.d.x": _set("_b2f({a})"),
    "fcvt.w.d": _set(_s32("int({a})")),
    "fcvt.d.w": _set("float(" + _s32("{a}") + ")"),
    "fcvt.d.l": _set("float({a})"),
    "cpop": _set(_UA + ".bit_count()"),
}

#: Mnemonics that can raise: (condition under which they do, the raise
#: statement, or None when the template raises by itself).
GUARDS: dict[str, tuple[str, str | None]] = {
    "cpop": ("not cpu.popcount_extension", "raise ValueError(_CPOP_ERROR)"),
    "fcvt.w.d": ("not _isfinite({a})", None),
}

_MASK_TEXT = "0xFFFFFFFFFFFFFFFF"


def _handler_source(name: str) -> str:
    """``def`` of the ``handler(cpu, op, pc)`` running one ``name``
    record: it returns the redirect target of a taken branch or jump,
    else None."""
    files = OPCODES[name].files
    fields = {"d": f"{files[0]}[op.rd]", "a": f"{files[1]}[op.rs1]",
              "b": f"{files[2]}[op.rs2]", "i": "op.imm", "pc": "pc",
              "jump": "return ",
              "addr": f"(x[op.rs1] + op.imm) & {_MASK_TEXT}"}
    body = SEMANTICS[name].format(**fields).splitlines()
    if name in GUARDS and GUARDS[name][1]:
        cond, raise_ = GUARDS[name]
        body.insert(0, f"if {cond.format(**fields)}: {raise_}")
    text = "\n".join(body)
    prologue = [f"{var} = cpu.{attr}" for var, attr in
                (("x", "x"), ("f", "f"), ("mem", "memory"))
                if re.search(rf"\b{var}\b", text)]
    return "\n    ".join([f"def _{name.replace('.', '_')}(cpu, op, pc):",
                          *prologue, *body])


def _build_handlers() -> dict[str, Callable]:
    """Every handler, from one compile of all their sources."""
    namespace: dict = {}
    exec(compile("\n".join(map(_handler_source, SEMANTICS)), "<handlers>",
                 "exec"), globals(), namespace)
    return {name: namespace["_" + name.replace(".", "_")]
            for name in SEMANTICS}


#: Semantics per mnemonic as ``handler(cpu, op, pc)``, for step().
HANDLERS: dict[str, Callable] = _build_handlers()


class Decoded(NamedTuple):
    """One instruction word, decoded once: all ``step`` needs to run it.

    ``sources``/``dest`` are the scoreboard slots read and written (x0,
    always ready, is neither); ``access`` is the D-cache access: None,
    False (load) or True (store).
    """

    name: str
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


@lru_cache(maxsize=4096)
def _decode(word: int) -> Decoded:
    instr = decode(word)
    spec = OPCODES[instr.mnemonic]
    files = spec.files
    reads = (_slot(files[1], instr.rs1), _slot(files[2], instr.rs2))
    return Decoded(
        name=instr.mnemonic,
        handler=HANDLERS[instr.mnemonic],
        kind=spec.kind,
        latency=LATENCY[spec.kind],
        rd=instr.rd, rs1=instr.rs1, rs2=instr.rs2, imm=instr.imm,
        sources=tuple(s for s in reads if s is not None),
        dest=_slot(files[0], instr.rd),
        access={"load": False, "store": True}.get(spec.kind),
    )


# ---------------------------------------------------------------------- #
# Translated basic blocks (see the module docstring)
# ---------------------------------------------------------------------- #
#: Entries of a PC, counted while it has no block, that translate it.
_HOT_ENTRY = 2
#: Instructions per block at most.
_MAX_BLOCK = 128
#: Compiled blocks kept process-wide: ~6.4 kB each on average over the
#: blocks of the paper kernels (tracemalloc of the compiled functions,
#: 9.7 instructions per block), so a full cache stays under ~5 MB.
_CODE_CAPACITY = 750
_CODE: dict[tuple, Callable] = {}

_BLOCK_ARGS = ("cpu, x, f, ready, stats, counts, mem, fetch, data_access, "
               "l1i, l1d, limit")
_FETCH_MISS = ("if s:", "    cyc += s", "    stats.stall_cycles_icache += s",
               "    counts['l1i_miss'] = counts.get('l1i_miss', 0) + 1")


def _block_fields(op: Decoded, pc: int, first: bool) -> dict[str, str]:
    files = OPCODES[op.name].files

    def reg(file: str, number: int) -> str:
        # x0 reads 0 once step() would have cleared it (after the first
        # instruction); a write to x0 goes nowhere.
        if file == "x" and number == 0 and not first:
            return "0"
        return f"{file}[{number}]"

    imm = f"({op.imm})" if op.imm < 0 else str(op.imm)
    return {"d": "_" if files[0] == "x" and op.rd == 0
            else reg(files[0], op.rd),
            "a": reg(files[1], op.rs1), "b": reg(files[2], op.rs2),
            "i": imm, "pc": str(pc), "jump": "npc = ", "addr": "ad"}


def _block_source(pc0: int, ops: list[Decoded], iline: int,
                  dline: int) -> str:
    """Source of the function running ``ops`` from ``pc0`` as step() would.

    It returns the number of instructions it retired: 0 only when the
    guard of the first one trips (the caller then steps it).
    """
    body: list[str] = []

    def emit(*lines: str, indent: str = "") -> None:
        body.extend(indent + line for line in lines)

    for k, op in enumerate(ops):
        pc = pc0 + 4 * k
        fields = _block_fields(op, pc, first=k == 0)
        emit(f"# {pc:#x} {op.name}")
        if op.name in GUARDS:
            cond = GUARDS[op.name][0].format(**fields)
            emit(f"if {cond}:")
            emit("return 0" if k == 0 else f"n = {k}; npc = {pc}; break",
                 indent="    ")
        # Fetch.
        line = pc // iline
        if k and line == (pc - 4) // iline:
            emit("ia += 1")
        else:
            fetch = (f"s = fetch({pc})",) + _FETCH_MISS
            if k:
                emit(*fetch)
            else:
                emit(f"if l1i._mru_line == {line}:", "    ia += 1", "else:")
                emit(*fetch, indent="    ")
        # Wait for the sources, then add the D-access stall.
        emit("t = cyc")
        for slot in op.sources:
            emit(f"r = ready[{slot}]", "if r > t: t = r")
        if op.access is not None:
            emit(f"ad = ({fields['a']} + {fields['i']}) & {_MASK_TEXT}")
            access = ("s = data_access(ad, %s)" % op.access, "if s:",
                      "    t += s", "    stats.stall_cycles_dcache += s",
                      "    counts['l1d_miss'] = counts.get('l1d_miss', 0) + 1")
            if op.access:
                emit(*access)
            else:
                emit(f"if ad // {dline} == l1d._mru_line:", "    da += 1",
                     "else:")
                emit(*access, indent="    ")
        last = k == len(ops) - 1
        if last and op.kind == "branch":
            emit("npc = None")
        emit(*SEMANTICS[op.name].format(**fields).splitlines())
        # Commit.
        if op.sources or op.access is not None:
            emit("raw += t - cyc")
        if op.dest is not None:
            emit(f"ready[{op.dest}] = t + {op.latency}")
        if not last:
            emit("cyc = t + 1", "if cyc >= limit:")
            emit(f"n = {k + 1}; npc = {pc + 4}; break", indent="    ")
        elif op.kind == "branch":
            emit("if npc is None:", f"    npc = {pc + 4}", "    cyc = t + 1",
                 "else:", f"    cyc = t + {1 + REDIRECT_PENALTY}",
                 f"    stats.redirect_cycles += {REDIRECT_PENALTY}",
                 f"n = {k + 1}", "break")
        else:
            emit("cyc = t + 1", f"npc = {pc + 4}", f"n = {k + 1}", "break")

    kinds = tuple(op.kind for op in ops)
    tally: dict[str, int] = {}
    for kind in kinds:
        tally[kind] = tally.get(kind, 0) + 1
    lines = [f"def _block({_BLOCK_ARGS}):",
             "    cyc = stats.cycles",
             "    raw = ia = da = 0",
             "    while True:"]
    lines += ["        " + line for line in body]
    lines += ["    stats.cycles = cyc",
              "    stats.instructions += n",
              "    stats.stall_cycles_raw += raw",
              "    l1i.stats.accesses += ia",
              "    l1d.stats.accesses += da",
              f"    if n == {len(ops)}:"]
    lines += [f"        counts[{kind!r}] = counts.get({kind!r}, 0) + {count}"
              for kind, count in tally.items()]
    lines += ["    else:",
              f"        for kind in {kinds!r}[:n]:",
              "            counts[kind] = counts.get(kind, 0) + 1",
              "    x[0] = 0",
              "    cpu.pc = npc",
              "    return n"]
    return "\n".join(lines)


def _compile_block(pc: int, ops: list[Decoded], lines: tuple[int, int]):
    namespace: dict = {}
    exec(compile(_block_source(pc, ops, *lines), f"<block {pc:#x}>",
                 "exec"), globals(), namespace)
    return namespace["_block"]


def _translate(memory: Memory, pc: int, lines: tuple[int, int]):
    """The ``(function, length)`` block at ``pc``, kept in ``memory``;
    None when the word at ``pc`` does not decode."""
    ops: list[Decoded] = []
    words: list[int] = []
    while len(ops) < _MAX_BLOCK:
        word = memory.load_u(pc + 4 * len(ops), 4)
        try:
            op = _decode(word)
        except ValueError:
            break
        ops.append(op)
        words.append(word)
        if op.kind == "branch" or op.access or op.name == "ecall":
            break
    if not ops:
        return None
    key = (pc, tuple(words), lines)
    code = _CODE.get(key)
    if code is None:
        code = _compile_block(pc, ops, lines)
        if len(_CODE) >= _CODE_CAPACITY:
            del _CODE[next(iter(_CODE))]
        _CODE[key] = code
    block = (code, len(ops))
    memory.remember_block(pc, 4 * len(ops), block)
    return block


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
        #: Instructions retired inside translated blocks, and the blocks
        #: this hart translated (telemetry of :meth:`run`).
        self.block_instructions = 0
        self.blocks_translated = 0
        self._entries: dict[int, int] = {}  # PC -> entries while blockless

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

        # Fetch (I-cache) and decode, once per address until it is written.
        stall = self.caches.fetch(pc)
        if stall:
            stats.stall_cycles_icache += stall
            counts["l1i_miss"] = counts.get("l1i_miss", 0) + 1
            now += stall
        op = self.memory.decoded.get(pc)
        if op is None:
            op = _decode(self.memory.load_u(pc, 4))
            self.memory.remember_decoded(pc, op)
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
        until_cycle: int | None = None,
    ) -> ExecutionStats:
        """Run until ECALL; returns the statistics.

        ``max_cycles`` is a watchdog for fault-injection campaigns: a
        corrupted loop bound usually still retires instructions, so the
        instruction budget alone cannot distinguish "slow" from "stuck".
        Tripping it raises :class:`~repro.errors.HangError` (the *hang*
        outcome bucket) rather than :class:`HaltError` (the *crash*
        bucket).

        ``until_cycle`` pauses the run: it returns, not halted, at the
        first instruction boundary where ``stats.cycles >= until_cycle``,
        before that boundary's budget and watchdog checks.  The caller
        may then change the machine (inject a fault) and call ``run``
        again to go on.

        Every instruction boundary sees these checks exactly as if the
        run stepped: a translated block leaves at the first boundary
        where one of them may act (see the module docstring).
        """
        stats = self.stats
        step = self.step
        pause = math.inf if until_cycle is None else until_cycle
        watchdog = math.inf if max_cycles is None else max_cycles
        # The first cycle count at which the pause or the watchdog acts;
        # leaving a block earlier is always exact, so "never" is a big int.
        limit = min(math.ceil(pause) if pause < math.inf else 1 << 62,
                    math.floor(watchdog) + 1 if watchdog < math.inf
                    else 1 << 62)
        caches = self.caches
        lines = (caches.l1i.line_bytes, caches.l1d.line_bytes)
        blocks = self.memory.blocks_for(lines)
        entries = self._entries
        args = (self, self.x, self.f, self._ready, stats, stats.class_counts,
                self.memory, caches.fetch, caches.data_access, caches.l1i,
                caches.l1d, limit)
        in_blocks = 0
        try:
            while not self.halted:
                if stats.cycles >= pause:
                    break
                if stats.instructions >= max_instructions:
                    raise HaltError(
                        f"exceeded {max_instructions} instructions "
                        "without ECALL"
                    )
                if stats.cycles > watchdog:
                    raise HangError(
                        f"cycle watchdog expired: {stats.cycles} > "
                        f"{max_cycles} cycles without ECALL"
                    )
                pc = self.pc
                block = blocks.get(pc)
                if block is None:
                    entries[pc] = seen = entries.get(pc, 0) + 1
                    if seen >= _HOT_ENTRY:
                        block = _translate(self.memory, pc, lines)
                        if block is not None:
                            self.blocks_translated += 1
                if (block is not None
                        and stats.instructions + block[1] <= max_instructions):
                    retired = block[0](*args)
                    if retired:
                        in_blocks += retired
                        continue
                step()
        finally:
            self.block_instructions += in_blocks
        return stats

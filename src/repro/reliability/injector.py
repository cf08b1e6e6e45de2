"""Applies :class:`~repro.reliability.faults.BitFlip` upsets to a live CPU.

The injector owns the mapping from abstract fault models to ISS state:
register flips respect RV64 two's-complement representation and the
hard-wired x0; cache strikes are resolved against the lines actually
resident at the injection instant; tag strikes use the cache's own
SEU hook (:meth:`repro.soc.cache.Cache.corrupt_tag`).

:func:`run_with_faults` is the campaign's inner loop: run the CPU to
each scheduled fault's injection cycle (``CPU.run(until_cycle=...)``),
fire the fault, and go on, under the same instruction budget as a
normal run plus a cycle-count watchdog (see
:meth:`repro.soc.cpu.CPU.run` for why both are needed).
"""

from __future__ import annotations

from repro.reliability.faults import BitFlip
from repro.soc.cpu import CPU, ExecutionStats

__all__ = ["inject", "run_with_faults"]

_MASK64 = (1 << 64) - 1


def _flip_register(cpu: CPU, reg: int, bit: int) -> bool:
    """Flip one bit of one integer register; False when x0 (masked)."""
    reg %= 32
    if reg == 0:
        return False  # x0 is hard-wired zero: strike absorbed by design
    raw = (cpu.x[reg] & _MASK64) ^ (1 << (bit % 64))
    cpu.x[reg] = raw - (1 << 64) if raw >> 63 else raw
    return True


def _resolve_line(cpu: CPU, selector: int) -> tuple[int, int, bool] | None:
    """Pick a resident L1D line from a raw selector; None if cache empty."""
    lines = cpu.caches.l1d.lines()
    if not lines:
        return None
    return lines[selector % len(lines)]


def _line_base_address(cpu: CPU, set_idx: int, tag: int) -> int:
    """Invert :meth:`Cache._locate`: (set, tag) -> line base address."""
    cache = cpu.caches.l1d
    return (tag * cache.n_sets + set_idx) * cache.line_bytes


def inject(cpu: CPU, fault: BitFlip) -> bool:
    """Apply one fault to the CPU *now*; True if state actually changed.

    An un-applied fault (strike on x0, or on a cache with no resident
    victim line) is architecturally masked by construction and is
    reported as such by the campaign.
    """
    if fault.structure == "regfile":
        return _flip_register(cpu, fault.index, fault.bit)
    if fault.structure == "dmem":
        cpu.memory.flip_bit(fault.index, fault.bit % 8)
        return True
    if fault.structure == "l1d_data":
        line = _resolve_line(cpu, fault.index)
        if line is None:
            return False
        set_idx, tag, _dirty = line
        base = _line_base_address(cpu, set_idx, tag)
        # The ISS keeps a single coherent byte store, so a corrupted
        # cached copy is modeled by flipping the backing byte while the
        # line is resident: subsequent hits read the flipped value,
        # exactly as the physical data array would return it.
        cpu.memory.flip_bit(base + fault.offset % cpu.caches.l1d.line_bytes,
                            fault.bit % 8)
        return True
    if fault.structure == "l1d_tag":
        line = _resolve_line(cpu, fault.index)
        if line is None:
            return False
        set_idx, tag, _dirty = line
        return cpu.caches.l1d.corrupt_tag(set_idx, tag)
    raise ValueError(f"unknown structure {fault.structure!r}")


def run_with_faults(
    cpu: CPU,
    faults: list[BitFlip],
    max_instructions: int = 50_000_000,
    max_cycles: int | None = None,
) -> tuple[ExecutionStats, list[tuple[BitFlip, bool]]]:
    """Run to ECALL, firing faults as their cycles come up.

    Returns ``(stats, [(fault, applied), ...])``.  Faults scheduled past
    the actual halt cycle never fire (``applied=False``): the particle
    struck after the computation finished.  Raises
    :class:`~repro.soc.cpu.HaltError` /
    :class:`~repro.errors.HangError` exactly like
    :meth:`~repro.soc.cpu.CPU.run` -- classification into outcome
    buckets is the campaign's job.

    A fault fires at the first instruction boundary where the cycle
    counter has reached its cycle, before that boundary's budget and
    watchdog checks.  The CPU is run in one ``CPU.run`` call per fault
    plus one to the end, so a wrapper around ``CPU.run`` that adds up
    each call's cumulative ``stats`` (as perfbench's traced runs do)
    would count a faulted run more than once; no perfbench workload runs
    campaigns.
    """
    pending = sorted(faults, key=lambda f: f.cycle)
    fired: list[tuple[BitFlip, bool]] = []
    for fault in pending:
        cpu.run(max_instructions, max_cycles, until_cycle=fault.cycle)
        if cpu.halted:
            break
        fired.append((fault, inject(cpu, fault)))
    fired.extend((f, False) for f in pending[len(fired):])
    return cpu.run(max_instructions, max_cycles), fired

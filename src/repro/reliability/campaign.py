"""SEU campaign runner: N seeded injections, four outcome buckets, AVF.

The methodology is the standard statistical fault-injection flow (one
fault per run against a golden reference):

1. run the workload once fault-free -> golden output + golden cycle
   count;
2. plan ``n_injections`` seeded :class:`~repro.reliability.faults.BitFlip`
   upsets over the target structures, uniformly across the golden
   cycle span;
3. re-run the workload once per fault and bucket the outcome:

   ``masked``
       run completed, output identical to golden (includes strikes
       that could not land: x0, empty cache victim, post-halt cycle);
   ``sdc``
       run completed, output *differs* -- silent data corruption, the
       reliability-critical bucket for a readout classifier (a
       misclassified qubit state poisons the QEC layer above);
   ``crash``
       the ISS raised (:class:`~repro.soc.cpu.HaltError`, decode error,
       misaligned PC...) -- detectable by an exception/trap handler;
   ``hang``
       the cycle-budget watchdog expired -- detectable by a timeout.

The architectural-vulnerability factor of a structure is the fraction
of its injections that are *not* masked.  The ``tmr`` knob models
task-level software triple-modular redundancy (the classic
mitigation): three independent executions with a majority vote on each
output word, so a single-run SDC is outvoted by the two clean replicas
and moves to ``masked``; crashes and hangs remain visible (they are
*detected* rather than silent, which is the point of TMR).

The workload is a :class:`~repro.soc.soc.WorkloadSpec`, the plain-data
image :func:`knn_workload` / :func:`hdc_workload` / :func:`qec_workload`
build; every run (golden or faulty) loads it into a fresh machine with
:meth:`RocketSoC.prepare <repro.soc.soc.RocketSoC.prepare>`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import telemetry
from repro.errors import HangError, ReproError
from repro.reliability.faults import ALL_STRUCTURES, BitFlip, FaultPlanner
from repro.reliability.injector import run_with_faults
from repro.runtime import env_cache, get_executor, stable_digest
from repro.soc.soc import (
    RocketSoC,
    WorkloadSpec,
    hdc_workload,
    knn_workload,
    qec_workload,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "InjectionRecord",
    "WorkloadSpec",
    "hdc_workload",
    "knn_workload",
    "majority_vote",
    "qec_workload",
    "run_campaign",
]

OUTCOMES = ("masked", "sdc", "crash", "hang")


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign."""

    n_injections: int = 200
    seed: int = 2023
    structures: tuple[str, ...] = ALL_STRUCTURES
    tmr: bool = False
    watchdog_factor: float = 4.0
    """Hang threshold as a multiple of the golden cycle count."""
    max_instructions: int = 50_000_000

    # -- provenance / cache identity ---------------------------------- #
    def to_dict(self) -> dict:
        """Plain-data view; round-trips through :meth:`from_dict`."""
        from repro.runtime.digest import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        from repro.runtime.digest import config_from_dict

        return config_from_dict(cls, data)

    def config_digest(self) -> str:
        """Stable content hash: the cache key / provenance stamp."""
        return stable_digest(self)


@dataclass(frozen=True)
class InjectionRecord:
    """Outcome of one injection run."""

    fault: BitFlip
    outcome: str
    applied: bool
    cycles: int
    detail: str = ""


@dataclass
class CampaignResult:
    """All records of one campaign plus the golden reference."""

    workload: str
    config: CampaignConfig
    golden_cycles: int
    golden_output: np.ndarray
    records: list[InjectionRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    """Wall time of the whole campaign (golden run + injections)."""

    @property
    def injections_per_second(self) -> float:
        """Campaign throughput; 0.0 until the campaign has run."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return len(self.records) / self.wall_seconds

    # -------------------------------------------------------------- #
    def counts(self, structure: str | None = None) -> dict[str, int]:
        """Outcome histogram, optionally restricted to one structure."""
        out = dict.fromkeys(OUTCOMES, 0)
        for r in self.records:
            if structure is None or r.fault.structure == structure:
                out[r.outcome] += 1
        return out

    def structures(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.fault.structure, None)
        return list(seen)

    def avf(self, structure: str | None = None) -> float:
        """Architectural vulnerability factor: P(outcome != masked)."""
        c = self.counts(structure)
        n = sum(c.values())
        return (n - c["masked"]) / n if n else 0.0

    def rate(self, outcome: str, structure: str | None = None) -> float:
        c = self.counts(structure)
        n = sum(c.values())
        return c[outcome] / n if n else 0.0

    def bucket_signature(self) -> tuple:
        """Hashable full-campaign signature for determinism checks:
        every record's (structure, cycle, index, bit, outcome)."""
        return tuple(
            (r.fault.structure, r.fault.cycle, r.fault.index,
             r.fault.bit, r.fault.offset, r.outcome, r.applied)
            for r in self.records
        )

    def summary(self) -> str:
        """Human-readable per-structure table."""
        lines = [
            f"SEU campaign: {self.workload}  "
            f"(n={len(self.records)}, seed={self.config.seed}, "
            f"tmr={'on' if self.config.tmr else 'off'})",
            f"golden run: {self.golden_cycles} cycles",
            f"{'structure':<10} {'n':>5} {'masked':>7} {'sdc':>5} "
            f"{'crash':>6} {'hang':>5} {'AVF':>7}",
        ]
        for s in self.structures() + [None]:
            c = self.counts(s)
            n = sum(c.values())
            label = s if s is not None else "TOTAL"
            lines.append(
                f"{label:<10} {n:>5} {c['masked']:>7} {c['sdc']:>5} "
                f"{c['crash']:>6} {c['hang']:>5} {self.avf(s):>6.1%}"
            )
        return "\n".join(lines)


def majority_vote(replicas: list[np.ndarray]) -> np.ndarray:
    """Element-wise majority over an odd number of equal-length outputs.

    Generic over integer payloads (labels, packed words): each element
    takes the value that a strict majority of replicas agree on; with no
    majority (possible only for >=3 distinct values) the first replica
    wins, which is how a real voter with an ordered input bus breaks
    ties.
    """
    if not replicas or len(replicas) % 2 == 0:
        raise ValueError("need an odd, non-zero replica count")
    stacked = np.stack([np.asarray(r) for r in replicas])
    need = len(replicas) // 2 + 1
    out = stacked[0].copy()
    for k in range(1, len(replicas)):
        votes = (stacked == stacked[k]).sum(axis=0)
        out = np.where(votes >= need, stacked[k], out)
    return out


# ------------------------------------------------------------------ #
# One injection run.  Parallel campaigns pickle the spec itself into
# each chunk of work; the workers load it exactly as the parent does.
# ------------------------------------------------------------------ #
def _classify(
    spec: WorkloadSpec,
    fault: BitFlip,
    golden: np.ndarray,
    max_cycles: int,
    config: CampaignConfig,
) -> InjectionRecord:
    """Execute one injection run and bucket its outcome."""
    cpu = RocketSoC().prepare(spec)
    try:
        stats, fired = run_with_faults(
            cpu, [fault],
            max_instructions=config.max_instructions,
            max_cycles=max_cycles,
        )
    except HangError as exc:
        return InjectionRecord(fault, "hang", True, max_cycles, str(exc))
    except ReproError as exc:
        return InjectionRecord(fault, "crash", True, cpu.stats.cycles,
                               str(exc))
    except Exception as exc:  # decode faults, misaligned accesses, ...
        return InjectionRecord(fault, "crash", True, cpu.stats.cycles,
                               f"{type(exc).__name__}: {exc}")
    applied = fired[0][1] if fired else False
    try:
        output = spec.read_output(cpu)
    except Exception as exc:
        return InjectionRecord(fault, "crash", applied, stats.cycles,
                               f"output unreadable: {exc}")
    if config.tmr:
        # Task-level TMR: the faulty replica is outvoted by two clean
        # ones.  The clean replicas are identical to the golden run by
        # determinism, so the vote is computed, not assumed.
        output = majority_vote([output, golden, golden])
    if np.array_equal(output, golden):
        return InjectionRecord(fault, "masked", applied, stats.cycles)
    mismatches = int(np.count_nonzero(output != golden))
    return InjectionRecord(fault, "sdc", applied, stats.cycles,
                           f"{mismatches} output word(s) corrupted")


def _injection_task(spec, golden, max_cycles, config, fault):
    """One injection run: the campaign fan-out's unit of work."""
    with telemetry.span("reliability.injection", structure=fault.structure,
                        cycle=fault.cycle) as sp:
        record = _classify(spec, fault, golden, max_cycles, config)
        sp.set(outcome=record.outcome)
    return record


def run_campaign(
    spec: WorkloadSpec,
    config: CampaignConfig | None = None,
    *,
    jobs: int | None = None,
) -> CampaignResult:
    """Run a full campaign; deterministic given (spec data, config).

    ``jobs`` distributes injections over the :mod:`repro.runtime`
    executor (``None`` defers to ``REPRO_JOBS``); the plan is drawn from
    the campaign seed *before* the fan-out and records merge in plan
    order, so outcome buckets and AVF are identical at any worker count.
    The spec itself is shipped to the workers.  With ``REPRO_CACHE_DIR``
    set, finished campaigns are memoized on disk keyed by the digest of
    spec + config.
    """
    config = config or CampaignConfig()
    cache_store = env_cache("campaign")
    cache_key = None
    if cache_store is not None:
        cache_key = stable_digest({"spec": spec, "config": config})
        cached = cache_store.get(cache_key)
        if cached is not None:
            return cached

    t0 = time.perf_counter()
    executor = get_executor(jobs)
    with telemetry.span("reliability.campaign", workload=spec.name,
                        n_injections=config.n_injections, tmr=config.tmr,
                        jobs=executor.jobs, backend=executor.backend) as sp:
        with telemetry.span("reliability.golden_run"):
            golden_cpu = RocketSoC().prepare(spec)
            golden_stats = golden_cpu.run(
                max_instructions=config.max_instructions
            )
            golden = spec.read_output(golden_cpu)
        max_cycles = int(golden_stats.cycles * config.watchdog_factor) + 1000

        planner = FaultPlanner(config.seed)
        faults = planner.plan(
            config.n_injections,
            cycle_max=golden_stats.cycles,
            data_regions=spec.data_regions,
            structures=config.structures,
        )
        result = CampaignResult(
            workload=spec.name,
            config=config,
            golden_cycles=golden_stats.cycles,
            golden_output=golden,
        )
        task = partial(_injection_task, spec, golden, max_cycles, config)
        with telemetry.span("reliability.injections", n=len(faults)):
            for record in executor.map(task, faults):
                result.records.append(record)
                telemetry.count("reliability.injections")
                telemetry.count(f"reliability.outcome.{record.outcome}")
        result.wall_seconds = time.perf_counter() - t0
        if telemetry.enabled():
            telemetry.gauge("reliability.injections_per_sec",
                            result.injections_per_second)
            sp.set(golden_cycles=result.golden_cycles,
                   injections_per_sec=round(result.injections_per_second, 2),
                   **result.counts())
    if cache_store is not None:
        cache_store.put(cache_key, result)
    return result

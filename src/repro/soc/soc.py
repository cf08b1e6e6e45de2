"""RocketSoC: the assembled system (CPU + caches + memory) and workload
drivers for the paper's classification experiments.

Every kernel is described once, as a :class:`WorkloadSpec`: plain,
picklable data holding the assembled program, the memory stores, the
live data regions, the output window and whether the kernel needs the
popcount extension.  :meth:`RocketSoC.prepare` loads any spec into a
fresh CPU and :meth:`WorkloadSpec.read_output` reads its result; the
drivers below and the SEU campaigns of :mod:`repro.reliability` share
that one load path.

The high-level entry points mirror the paper's evaluation:

* :meth:`RocketSoC.run_knn` / :meth:`RocketSoC.run_hdc` -- classify a
  batch of I/Q measurements; return cycle statistics *and* the computed
  labels so functional correctness is checked against the Python
  reference classifiers in tests;
* :meth:`RocketSoC.run_dhrystone` -- the general-average workload;
* :func:`cycles_per_classification` -- the Table-2 metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro import telemetry
from repro.soc.assembler import Program, assemble
from repro.soc.cache import CacheHierarchy, CacheStats
from repro.soc.cpu import CPU, ExecutionStats
from repro.soc.memory import Memory
from repro.soc.programs import (
    CENTERS_BASE,
    MEAS_BASE,
    OUT_BASE,
    TABLES_BASE,
    dhrystone_source,
    hdc_source,
    knn_source,
    pack_centers,
    pack_measurements,
    qec_majority_source,
    vqe_update_source,
)

__all__ = [
    "RocketSoC",
    "WorkloadResult",
    "WorkloadSpec",
    "cycles_per_classification",
    "hdc_workload",
    "knn_workload",
    "qec_workload",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """One RocketSoC kernel as plain data: its workload image.

    Picklable and digestable (:func:`repro.runtime.stable_digest`), so an
    SEU campaign ships it to worker processes and keys its disk cache on
    it.  Every :meth:`RocketSoC.prepare` of one spec yields an identical
    machine.
    """

    name: str
    program: Program
    stores: tuple[tuple[int, bytes], ...] = ()
    """``(base, bytes)`` written to memory after the program, in order."""
    data_regions: tuple[tuple[int, int], ...] = ()
    """``(base, size)`` byte ranges of live data: made L2-resident at
    load, in this order, and the memory targets of a fault campaign."""
    output: tuple[int, int, str] | None = None
    """``(base, count, dtype)`` of the result array; ``None``: no result."""
    popcount: bool = False
    """The kernel executes the custom ``cpop`` instruction (ABL-1)."""

    def read_output(self, cpu: CPU) -> np.ndarray | None:
        """The result window after a run, as an int array."""
        if self.output is None:
            return None
        base, count, dtype = self.output
        dtype = np.dtype(dtype)
        raw = cpu.memory.load_bytes(base, count * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).astype(int)


def knn_workload(
    centers: np.ndarray,
    measurements: np.ndarray,
    n_qubits: int,
    with_sqrt: bool = False,
) -> WorkloadSpec:
    """The paper's kNN readout classifier.

    ``centers``: (n_qubits, 2, 2); ``measurements``: (n, 2) shot-major
    (qubit index cycles fastest).  The output is the labels as 0/1.
    """
    n = len(measurements)
    meas_bytes = pack_measurements(measurements)
    center_bytes = pack_centers(centers)
    return WorkloadSpec(
        "knn",
        assemble(knn_source(n, n_qubits, with_sqrt=with_sqrt)),
        stores=((CENTERS_BASE, center_bytes), (MEAS_BASE, meas_bytes)),
        data_regions=((MEAS_BASE, len(meas_bytes)),
                      (CENTERS_BASE, len(center_bytes))),
        output=(OUT_BASE, n, "u1"),
    )


def hdc_workload(
    tables: bytes,
    measurements: np.ndarray,
    n_qubits: int,
    hardware_popcount: bool = False,
    precomputed_xor: bool = True,
) -> WorkloadSpec:
    """The HDC readout classifier; ``tables`` comes from
    :func:`repro.soc.programs.pack_hdc_tables`."""
    n = len(measurements)
    meas_bytes = pack_measurements(measurements)
    return WorkloadSpec(
        "hdc",
        assemble(hdc_source(n, n_qubits,
                            hardware_popcount=hardware_popcount,
                            precomputed_xor=precomputed_xor)),
        stores=((TABLES_BASE, tables), (MEAS_BASE, meas_bytes)),
        data_regions=((MEAS_BASE, len(meas_bytes)),
                      (TABLES_BASE, len(tables))),
        output=(OUT_BASE, n, "u1"),
        popcount=hardware_popcount,
    )


def qec_workload(bits: np.ndarray, distance: int) -> WorkloadSpec:
    """Repetition-code majority decoding (paper Section VII).

    ``bits``: flat 0/1 array, physical-qubit-major, with length a
    multiple of ``distance``.  The output is the logical values.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % distance:
        raise ValueError("bit count must be a multiple of the distance")
    n_logical = bits.size // distance
    return WorkloadSpec(
        "qec",
        assemble(qec_majority_source(n_logical, distance)),
        stores=((MEAS_BASE, bits.tobytes()),),
        data_regions=((MEAS_BASE, bits.size),),
        output=(OUT_BASE, n_logical, "u1"),
    )


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    name: str
    stats: ExecutionStats
    labels: np.ndarray | None = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    def cycles_per_item(self, n_items: int) -> float:
        return self.stats.cycles / n_items if n_items else 0.0


def _traced_run(name: str, cpu: CPU, **run_kwargs):
    """Run a loaded CPU inside a telemetry span.

    Records the architectural effort of the run -- instructions retired,
    cycles, CPI and the cache hit rates the paper's Table 2 discussion
    hinges on -- and the share of instructions retired inside translated
    blocks as span attributes and registry counters.  One enabled
    check per *workload* run, nothing per instruction.
    """
    with telemetry.span("soc.workload", workload=name) as sp:
        stats = cpu.run(**run_kwargs)
        if telemetry.enabled():
            caches = cpu.caches
            sp.set(
                instructions=stats.instructions,
                cycles=stats.cycles,
                cpi=round(stats.cpi, 3),
                l1i_hit_rate=round(1.0 - caches.l1i.stats.miss_rate, 4),
                l1d_hit_rate=round(1.0 - caches.l1d.stats.miss_rate, 4),
                l2_hit_rate=round(1.0 - caches.l2.stats.miss_rate, 4),
                translated_frac=round(cpu.block_instructions
                                      / max(stats.instructions, 1), 4),
            )
            telemetry.count("soc.workload_runs")
            telemetry.count("soc.blocks_translated", cpu.blocks_translated)
            telemetry.count("soc.instructions", stats.instructions)
            telemetry.count("soc.cycles", stats.cycles)
    return stats


class RocketSoC:
    """One SoC configuration; every run gets fresh memory, caches and CPU.

    ``cache_factory`` builds the memory hierarchy per run; override it to
    explore other off-the-shelf configurations ("off-the-shelf SoCs ...
    are available in a wide range of specifications and capabilities and
    could quickly be swapped in and out", paper Section I-C).
    ``warm_l2=False`` leaves the workload data cold in main memory.
    """

    def __init__(self, warm_l2: bool = True, cache_factory=None):
        self.warm_l2 = warm_l2
        self.cache_factory = cache_factory or CacheHierarchy

    def prepare(self, spec: WorkloadSpec) -> CPU:
        """A fresh CPU with ``spec`` loaded, ready to run.

        The data regions are made L2-resident (not L1): measurement words
        arrive from the readout data path into the shared L2 (DMA), not
        from off-chip memory; without this the streaming loads would pay
        main-memory latency on every line, which is not the system the
        paper times.
        """
        cpu = CPU(memory=Memory(), caches=self.cache_factory(),
                  popcount_extension=spec.popcount)
        cpu.load_program(spec.program)
        for base, data in spec.stores:
            cpu.memory.store_bytes(base, data)
        if self.warm_l2 and spec.data_regions:
            l2 = cpu.caches.l2
            for base, size in spec.data_regions:
                if size > 0:
                    for addr in range(base, base + size + l2.line_bytes,
                                      l2.line_bytes):
                        l2.access(addr)
            # Warming is setup, not workload: reset the counters.
            l2.stats = CacheStats()
        return cpu

    # ------------------------------------------------------------------ #
    # Workload drivers.  ``setup_*`` return the ``(prepare, read_output,
    # data_regions)`` triple of one spec: ``prepare()`` builds a fresh,
    # fully loaded CPU and ``read_output(cpu)`` extracts the result after
    # a run.  Every ``run_*`` goes setup -> prepare -> traced run ->
    # WorkloadResult through ``_run``; perfbench wraps ``setup_knn`` /
    # ``setup_hdc`` to time each ``prepare()``.
    # ------------------------------------------------------------------ #
    def _setup(self, spec: WorkloadSpec):
        return (partial(self.prepare, spec), spec.read_output,
                list(spec.data_regions))

    def _run(self, name: str, setup) -> WorkloadResult:
        prepare, read_output, _ = setup
        cpu = prepare()
        stats = _traced_run(name, cpu)
        return WorkloadResult(name=name, stats=stats,
                              labels=read_output(cpu))

    def setup_knn(self, centers, measurements, n_qubits, with_sqrt=False):
        """kNN setup triple; see :func:`knn_workload`."""
        return self._setup(knn_workload(centers, measurements, n_qubits,
                                        with_sqrt=with_sqrt))

    def run_knn(
        self,
        centers: np.ndarray,
        measurements: np.ndarray,
        n_qubits: int,
        with_sqrt: bool = False,
    ) -> WorkloadResult:
        """Classify measurements with the kNN kernel (labels 0/1)."""
        return self._run(
            "knn_sqrt" if with_sqrt else "knn",
            self.setup_knn(centers, measurements, n_qubits,
                           with_sqrt=with_sqrt),
        )

    def setup_hdc(self, tables, measurements, n_qubits,
                  hardware_popcount=False, precomputed_xor=True):
        """HDC setup triple; see :func:`hdc_workload`."""
        return self._setup(hdc_workload(
            tables, measurements, n_qubits,
            hardware_popcount=hardware_popcount,
            precomputed_xor=precomputed_xor,
        ))

    def run_hdc(
        self,
        tables: bytes,
        measurements: np.ndarray,
        n_qubits: int,
        hardware_popcount: bool = False,
        precomputed_xor: bool = True,
    ) -> WorkloadResult:
        """Classify measurements with the HDC kernel."""
        return self._run("hdc", self.setup_hdc(
            tables, measurements, n_qubits,
            hardware_popcount=hardware_popcount,
            precomputed_xor=precomputed_xor,
        ))

    def run_qec_decode(
        self, bits: np.ndarray, distance: int
    ) -> WorkloadResult:
        """Majority-decode repetition-code blocks; see :func:`qec_workload`."""
        return self._run("qec_decode",
                         self._setup(qec_workload(bits, distance)))

    def run_vqe_update(
        self, bits: np.ndarray, params: np.ndarray, signs: np.ndarray
    ) -> WorkloadResult:
        """One VQE classical step (paper Section VII): expectation from
        classified bits plus an SPSA parameter update.

        ``bits``: 0/1 bytes; ``params``: int64 fixed-point parameters;
        ``signs``: 0/1 perturbation directions.  Returns the updated
        parameter vector in ``labels`` (int64 view).
        """
        bits = np.asarray(bits, dtype=np.uint8)
        params = np.asarray(params, dtype=np.int64)
        signs = np.asarray(signs, dtype=np.uint8)
        if len(params) != len(signs):
            raise ValueError("params and signs must align")
        spec = WorkloadSpec(
            "vqe_update",
            assemble(vqe_update_source(bits.size, params.size)),
            # The signs follow the parameters at TABLES_BASE.
            stores=((MEAS_BASE, bits.tobytes()),
                    (TABLES_BASE,
                     params.astype("<i8").tobytes() + signs.tobytes())),
            data_regions=((MEAS_BASE, bits.size),
                          (TABLES_BASE, 9 * params.size)),
            output=(OUT_BASE, params.size, "<i8"),
        )
        return self._run("vqe_update", self._setup(spec))

    def run_dhrystone(self, iterations: int = 200) -> WorkloadResult:
        """Run the Dhrystone-like integer benchmark."""
        spec = WorkloadSpec(
            "dhrystone",
            assemble(dhrystone_source(iterations)),
            # Seed the source record with something non-trivial.
            stores=((MEAS_BASE, bytes(range(1, 33)) + bytes(224)),),
        )
        return self._run("dhrystone", self._setup(spec))


def cycles_per_classification(result: WorkloadResult, n: int) -> float:
    """The Table-2 metric: average clock cycles per measurement."""
    if n <= 0:
        raise ValueError("need a positive measurement count")
    return result.stats.cycles / n

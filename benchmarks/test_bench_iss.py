"""ISS bench: the Fig. 7 kNN and HDC kernels at 400 qubits.

The engine has two fast paths: ``CPU.run`` executes hot code as
translated basic blocks, and its caches answer a repeat access to the
line of their last access from one comparison.  Two baselines run the
same loaded kernel: the machine built with
``RocketSoC(cache_factory=reference_hierarchy)`` (``tests/soc/oracle.py``),
whose caches scan their set on every access, and the engine's own
machine driven by a stepping loop (``while not cpu.halted:
cpu.step()``), which translates nothing.  The reference is stepped too,
so it measures neither fast path.  All three must produce the same
labels and statistics; the engine must be faster than each.

Records ``bench.iss.{knn,hdc}_kips`` (simulated thousand instructions
per second on the engine), ``_reference_kips`` and ``_step_kips`` via
``bench_record``.  Timing is interleaved best-of-N so a background-noise
spike on one run cannot fail the assertion.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from tests.soc.oracle import reference_hierarchy

from repro.classify import HDCClassifier, HDCEncoder
from repro.soc import RocketSoC
from repro.soc.programs import pack_hdc_tables

N_QUBITS = 400
SHOTS = 8
REPEATS = 3


def _kernels() -> dict:
    rng = np.random.default_rng(2023)
    centers = rng.normal(0.0, 0.8, (N_QUBITS, 2, 2))
    meas = rng.normal(0.0, 0.8, (SHOTS * N_QUBITS, 2))
    encoder = HDCEncoder.random(seed=5)
    clf = HDCClassifier.from_centers(centers, encoder=encoder)
    tables = pack_hdc_tables(encoder.y_items, xc0=clf.xc_tables[:, 0],
                             xc1=clf.xc_tables[:, 1])
    return {
        "knn": lambda soc: soc.setup_knn(centers, meas, N_QUBITS),
        "hdc": lambda soc: soc.setup_hdc(tables, meas, N_QUBITS),
    }


def _timed(setup, drive):
    """Seconds to ``drive`` a freshly loaded CPU, its stats and labels."""
    prepare, read_output, _ = setup
    cpu = prepare()
    t0 = time.perf_counter()
    drive(cpu)
    return time.perf_counter() - t0, cpu.stats, read_output(cpu)


def _step_all(cpu):
    while not cpu.halted:
        cpu.step()


@pytest.mark.parametrize("kind", ["knn", "hdc"])
def test_bench_iss(kind, bench_record):
    setup = _kernels()[kind]
    engine = setup(RocketSoC())
    reference = setup(RocketSoC(cache_factory=reference_hierarchy))

    best = {"engine": float("inf"), "reference": float("inf"),
            "step": float("inf")}
    results = {}
    for _ in range(REPEATS):
        for name, triple, drive in (
                ("reference", reference, _step_all),
                ("step", engine, _step_all),
                ("engine", engine, lambda cpu: cpu.run())):
            seconds, stats, labels = _timed(triple, drive)
            best[name] = min(best[name], seconds)
            results[name] = (stats, labels)

    # Same answers first: the speed only counts if the labels and every
    # statistic are those of the reference caches and of stepping.
    stats, labels = results["engine"]
    for name in ("reference", "step"):
        assert np.array_equal(labels, results[name][1]), name
        assert stats == results[name][0], name

    kips = {name: stats.instructions / seconds / 1e3
            for name, seconds in best.items()}
    bench_record(f"iss.{kind}_kips", kips["engine"])
    bench_record(f"iss.{kind}_reference_kips", kips["reference"])
    bench_record(f"iss.{kind}_step_kips", kips["step"])
    print(f"\n{kind}@{N_QUBITS}: {stats.instructions} instructions, "
          f"engine {kips['engine']:.0f} kips, reference caches "
          f"{kips['reference']:.0f} kips, stepping {kips['step']:.0f} kips")
    for name in ("reference", "step"):
        assert best["engine"] < best[name], (
            f"the engine must be faster than {name}: "
            f"{best['engine']:.3f} s vs {best[name]:.3f} s")

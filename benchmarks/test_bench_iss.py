"""ISS bench: the Fig. 7 kNN and HDC kernels at 400 qubits.

The engine's caches answer a repeat access to the line of their last
access from one comparison (every fetch of a straight-line run, most
array walks); its reference (``tests/soc/oracle.py``) is the same
machine built with ``RocketSoC(cache_factory=reference_hierarchy)``,
whose caches scan their set on every access.  Both must produce the
same labels and cycle counts; the engine must be faster.

Records ``bench.iss.{knn,hdc}_kips`` (simulated thousand instructions
per second on the engine) and the reference's, via ``bench_record``.
Timing is interleaved best-of-N so a background-noise spike on one run
cannot fail the assertion.
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
        "knn": lambda soc: soc.run_knn(centers, meas, N_QUBITS),
        "hdc": lambda soc: soc.run_hdc(tables, meas, N_QUBITS),
    }


@pytest.mark.parametrize("kind", ["knn", "hdc"])
def test_bench_iss(kind, bench_record):
    kernel = _kernels()[kind]
    engine = RocketSoC()
    reference = RocketSoC(cache_factory=reference_hierarchy)

    t_engine = t_reference = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        ref = kernel(reference)
        t_reference = min(t_reference, time.perf_counter() - t0)
        t0 = time.perf_counter()
        out = kernel(engine)
        t_engine = min(t_engine, time.perf_counter() - t0)

    # Same answers first: the speed only counts if the labels and every
    # cycle are those of the reference caches.
    assert np.array_equal(out.labels, ref.labels)
    assert out.stats == ref.stats

    kips = out.stats.instructions / t_engine / 1e3
    ref_kips = out.stats.instructions / t_reference / 1e3
    bench_record(f"iss.{kind}_kips", kips)
    bench_record(f"iss.{kind}_reference_kips", ref_kips)
    print(f"\n{kind}@{N_QUBITS}: {out.stats.instructions} instructions, "
          f"engine {kips:.0f} kips, reference caches {ref_kips:.0f} kips "
          f"({t_reference / t_engine:.2f}x)")
    assert t_engine < t_reference, (
        f"the engine must be faster than the reference caches: "
        f"{t_engine:.3f} s vs {t_reference:.3f} s")

"""Workload images: plain data that pickles, digests and loads the same
machine every time."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.classify import HDCClassifier, HDCEncoder
from repro.runtime import stable_digest
from repro.soc import RocketSoC
from repro.soc.programs import pack_hdc_tables
from repro.soc.soc import hdc_workload, knn_workload, qec_workload


def _images() -> dict:
    rng = np.random.default_rng(11)
    nq = 4
    centers = rng.normal(0.0, 0.8, (nq, 2, 2))
    meas = rng.normal(0.0, 0.8, (3 * nq, 2))
    encoder = HDCEncoder.random(seed=5)
    clf = HDCClassifier.from_centers(centers, encoder=encoder)
    tables = pack_hdc_tables(encoder.y_items, xc0=clf.xc_tables[:, 0],
                             xc1=clf.xc_tables[:, 1])
    bits = rng.integers(0, 2, 12).astype(np.uint8)
    return {
        "knn": knn_workload(centers, meas, nq),
        "knn_sqrt": knn_workload(centers, meas, nq, with_sqrt=True),
        "hdc": hdc_workload(tables, meas, nq),
        "hdc_cpop": hdc_workload(tables, meas, nq, hardware_popcount=True),
        "qec": qec_workload(bits, 3),
    }


IMAGES = _images()


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_image_survives_pickle_and_digest(name):
    image = IMAGES[name]
    clone = pickle.loads(pickle.dumps(image))
    assert clone == image
    assert stable_digest(clone) == stable_digest(image)


def test_digest_tells_images_apart():
    digests = {stable_digest(image) for image in IMAGES.values()}
    assert len(digests) == len(IMAGES)


def _machine(cpu) -> tuple:
    caches = tuple((level.stats, level._sets)
                   for level in (cpu.caches.l1i, cpu.caches.l1d,
                                 cpu.caches.l2))
    return (cpu.memory._pages, cpu.x, cpu.f, cpu.pc, cpu._ready,
            cpu.stats, cpu.popcount_extension, caches)


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_two_prepares_load_identical_machines(name):
    soc = RocketSoC()
    first = soc.prepare(IMAGES[name])
    second = soc.prepare(IMAGES[name])
    assert _machine(first) == _machine(second)
    assert first.popcount_extension == (name == "hdc_cpop")
    # The warm-up left the data L2-resident and the counters at zero.
    assert any(first.caches.l2._sets)
    assert first.caches.l2.stats.accesses == 0

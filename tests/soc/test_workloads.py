"""End-to-end workload tests: kernels vs Python references, Table-2 shape."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classify import HDCClassifier, HDCEncoder, KNNClassifier
from repro.soc import RocketSoC, cycles_per_classification
from repro.soc.programs import pack_hdc_tables


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2023)


def _setup(rng, n_qubits: int, shots: int):
    centers = rng.normal(0.0, 0.8, (n_qubits, 2, 2))
    measurements = rng.normal(0.0, 0.8, (shots * n_qubits, 2))
    return centers, measurements


class TestKNNKernel:
    def test_labels_match_reference(self, rng):
        centers, meas = _setup(rng, 20, 20)
        result = RocketSoC().run_knn(centers, meas, 20)
        ref = KNNClassifier(centers).predict(meas)
        assert np.array_equal(result.labels, ref)

    def test_sqrt_variant_same_labels(self, rng):
        centers, meas = _setup(rng, 10, 10)
        plain = RocketSoC().run_knn(centers, meas, 10)
        sqrt = RocketSoC().run_knn(centers, meas, 10, with_sqrt=True)
        assert np.array_equal(plain.labels, sqrt.labels)

    def test_sqrt_variant_costs_more(self, rng):
        centers, meas = _setup(rng, 10, 10)
        plain = RocketSoC().run_knn(centers, meas, 10)
        sqrt = RocketSoC().run_knn(centers, meas, 10, with_sqrt=True)
        assert sqrt.cycles > 1.5 * plain.cycles

    def test_cycles_per_measurement_near_paper_small(self, rng):
        centers, meas = _setup(rng, 20, 40)
        result = RocketSoC().run_knn(centers, meas, 20)
        cpm = cycles_per_classification(result, len(meas))
        # Paper Table 2: 41.5 cycles at 20 qubits.
        assert 30 < cpm < 55

    def test_more_qubits_more_cycles(self, rng):
        c20, m20 = _setup(rng, 20, 40)
        c400, m400 = _setup(rng, 400, 40)
        r20 = RocketSoC().run_knn(c20, m20, 20)
        r400 = RocketSoC().run_knn(c400, m400, 400)
        cpm20 = cycles_per_classification(r20, len(m20))
        cpm400 = cycles_per_classification(r400, len(m400))
        # Paper: 41.5 -> 72.8 ("more cache misses").
        assert cpm400 > 1.2 * cpm20


class TestHDCKernel:
    @pytest.fixture(scope="class")
    def hdc_setup(self, rng):
        n_qubits, shots = 20, 20
        centers = rng.normal(0.0, 0.8, (n_qubits, 2, 2))
        meas = rng.normal(0.0, 0.8, (shots * n_qubits, 2))
        encoder = HDCEncoder.random(seed=5)
        clf = HDCClassifier.from_centers(centers, encoder=encoder)
        pre = pack_hdc_tables(
            encoder.y_items, xc0=clf.xc_tables[:, 0], xc1=clf.xc_tables[:, 1]
        )
        naive = pack_hdc_tables(
            encoder.y_items, x_items=encoder.x_items,
            c0=clf.prototypes[:, 0], c1=clf.prototypes[:, 1],
        )
        return n_qubits, meas, clf, pre, naive

    def test_labels_match_reference(self, hdc_setup):
        nq, meas, clf, pre, _ = hdc_setup
        result = RocketSoC().run_hdc(pre, meas, nq)
        ref = clf.predict(meas)
        assert np.array_equal(result.labels, ref)

    def test_naive_variant_same_labels(self, hdc_setup):
        nq, meas, clf, pre, naive = hdc_setup
        a = RocketSoC().run_hdc(pre, meas, nq)
        b = RocketSoC().run_hdc(naive, meas, nq, precomputed_xor=False)
        assert np.array_equal(a.labels, b.labels)

    def test_hdc_slower_than_knn(self, hdc_setup, rng):
        nq, meas, clf, pre, _ = hdc_setup
        hdc = RocketSoC().run_hdc(pre, meas, nq)
        centers = rng.normal(0.0, 0.8, (nq, 2, 2))
        knn = RocketSoC().run_knn(centers, meas, nq)
        ratio = hdc.cycles / knn.cycles
        # Paper: HDC is 3.3x slower than kNN.
        assert 2.0 < ratio < 5.0

    def test_hardware_popcount_helps_substantially(self, hdc_setup):
        nq, meas, clf, pre, _ = hdc_setup
        soft = RocketSoC().run_hdc(pre, meas, nq)
        hard = RocketSoC().run_hdc(
            pre, meas, nq, hardware_popcount=True
        )
        assert np.array_equal(soft.labels, hard.labels)
        # Paper: "Hardware support would reduce the computation time
        # significantly."
        assert hard.cycles < 0.75 * soft.cycles

    def test_cycles_near_paper_band(self, hdc_setup):
        nq, meas, clf, pre, _ = hdc_setup
        result = RocketSoC().run_hdc(pre, meas, nq)
        cpm = cycles_per_classification(result, len(meas))
        # Paper Table 2: 184.8 cycles at 20 qubits.
        assert 100 < cpm < 250


class TestDhrystone:
    def test_runs_to_completion(self):
        result = RocketSoC().run_dhrystone(iterations=50)
        assert result.stats.instructions > 50 * 40
        assert result.stats.cycles > result.stats.instructions

    def test_scales_linearly(self):
        a = RocketSoC().run_dhrystone(iterations=20).cycles
        b = RocketSoC().run_dhrystone(iterations=80).cycles
        assert b == pytest.approx(4 * a, rel=0.25)

    def test_profile_is_integer_heavy(self):
        result = RocketSoC().run_dhrystone(iterations=50)
        profile = result.stats.profile()
        assert profile["alu_per_cycle"] > 0.1
        assert profile["mem_per_cycle"] > 0.05


class TestInterface:
    def test_cycles_per_classification_validates(self, rng):
        centers, meas = _setup(rng, 5, 2)
        result = RocketSoC().run_knn(centers, meas, 5)
        with pytest.raises(ValueError):
            cycles_per_classification(result, 0)

    def test_warm_l2_reduces_cycles(self, rng):
        centers, meas = _setup(rng, 20, 20)
        warm = RocketSoC(warm_l2=True).run_knn(centers, meas, 20)
        cold = RocketSoC(warm_l2=False).run_knn(centers, meas, 20)
        assert warm.cycles < cold.cycles


class TestVQEUpdate:
    def test_matches_reference(self, rng):
        from repro.soc import RocketSoC

        bits = rng.integers(0, 2, 500).astype(np.uint8)
        params = rng.integers(-(10**6), 10**6, 32)
        signs = rng.integers(0, 2, 32).astype(np.uint8)
        result = RocketSoC().run_vqe_update(bits, params, signs)
        g = 2 * int(bits.sum()) - len(bits)
        want = params + np.where(signs == 1, g, -g)
        assert np.array_equal(result.labels, want)

    def test_shape_validation(self, rng):
        from repro.soc import RocketSoC

        with pytest.raises(ValueError, match="align"):
            RocketSoC().run_vqe_update(
                np.zeros(8, dtype=np.uint8),
                np.zeros(4, dtype=np.int64),
                np.zeros(5, dtype=np.uint8),
            )

    def test_cycles_scale_with_bits(self, rng):
        from repro.soc import RocketSoC

        params = np.zeros(8, dtype=np.int64)
        signs = np.zeros(8, dtype=np.uint8)
        small = RocketSoC().run_vqe_update(
            rng.integers(0, 2, 100).astype(np.uint8), params, signs
        )
        large = RocketSoC().run_vqe_update(
            rng.integers(0, 2, 1000).astype(np.uint8), params, signs
        )
        assert large.cycles > 3 * small.cycles

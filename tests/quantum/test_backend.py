"""Tests for the synthetic quantum backend (Fig. 2 substitution)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quantum import (
    FALCON_QUBITS,
    FALCON_T2,
    QuantumBackend,
    QubitReadoutModel,
    falcon_backend,
    generate_dataset,
)


@pytest.fixture(scope="module")
def backend() -> QuantumBackend:
    return falcon_backend()


class TestBackendConstruction:
    def test_default_is_27_qubit_falcon(self, backend):
        assert backend.n_qubits == FALCON_QUBITS == 27
        assert backend.t2 == FALCON_T2

    def test_deterministic_per_seed(self):
        a = falcon_backend(seed=3)
        b = falcon_backend(seed=3)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_scales_to_thousands_of_qubits(self):
        big = falcon_backend(n_qubits=1500, seed=1)
        assert big.n_qubits == 1500
        assert big.centers.shape == (1500, 2, 2)

    def test_expected_fidelity_in_band(self, backend):
        fids = [q.expected_fidelity for q in backend.qubits]
        assert all(0.96 < f < 0.999 for f in fids)

    def test_separation_positive(self, backend):
        assert all(q.separation > 0.1 for q in backend.qubits)


class TestMeasurement:
    def test_shapes(self, backend):
        states = np.zeros((10, backend.n_qubits), dtype=int)
        pts = backend.measure(states)
        assert pts.shape == (10, backend.n_qubits, 2)

    def test_bad_state_shape_rejected(self, backend):
        with pytest.raises(ValueError, match="shape"):
            backend.measure(np.zeros((10, 3), dtype=int))

    def test_blobs_centered_correctly(self, backend):
        n = 3000
        zeros = backend.measure(np.zeros((n, backend.n_qubits), dtype=int))
        ones = backend.measure(np.ones((n, backend.n_qubits), dtype=int))
        np.testing.assert_allclose(
            zeros.mean(axis=0), backend.centers[:, 0], atol=0.05
        )
        np.testing.assert_allclose(
            ones.mean(axis=0), backend.centers[:, 1], atol=0.05
        )

    def test_observed_fidelity_matches_model(self, backend):
        """Classify many shots with the *true* centers; the per-qubit
        accuracy must match each qubit's analytic expected fidelity."""
        from repro.classify import KNNClassifier, evaluate_accuracy

        states, pts = backend.random_shots(3000, seed=99)
        clf = KNNClassifier(backend.centers)
        qubit = np.tile(np.arange(backend.n_qubits), len(states))
        acc = evaluate_accuracy(
            clf.classify(qubit, pts.reshape(-1, 2)),
            states.reshape(-1),
            qubit,
            backend.n_qubits,
        )
        expected = np.array([q.expected_fidelity for q in backend.qubits])
        np.testing.assert_allclose(acc.per_qubit, expected, atol=0.02)


class TestDecoherence:
    def test_unit_fidelity_at_zero(self, backend):
        assert backend.state_fidelity(0.0) == pytest.approx(1.0)

    def test_one_over_e_at_t2(self, backend):
        assert backend.state_fidelity(backend.t2) == pytest.approx(
            np.exp(-1)
        )

    def test_monotone_decay(self, backend):
        t = np.linspace(0, 125e-6, 50)
        f = backend.state_fidelity(t)
        assert np.all(np.diff(f) < 0)

    def test_time_budget_is_t2(self, backend):
        # Fig. 2(c): classification must finish within the decoherence
        # time, ~110 us on the Falcon.
        assert backend.time_budget() == pytest.approx(110e-6)


class TestDataset:
    def test_calibration_recovers_centers(self, backend):
        ds = generate_dataset(backend, n_shots=10,
                              n_calibration_shots=4000)
        np.testing.assert_allclose(
            ds.calibration_centers, backend.centers, atol=0.02
        )

    def test_interleaved_layout(self, backend):
        ds = generate_dataset(backend, n_shots=5)
        qubit, truth, pts = ds.interleaved()
        assert len(qubit) == len(truth) == len(pts) == 5 * backend.n_qubits
        # Qubit index cycles fastest.
        assert qubit[: backend.n_qubits].tolist() == list(
            range(backend.n_qubits)
        )

    def test_measurement_count(self, backend):
        ds = generate_dataset(backend, n_shots=7)
        assert ds.n_measurements == 7 * backend.n_qubits


class TestNormalQuantiles:
    """``scipy.special.ndtri``/``ndtr`` give every bit ``scipy.stats.norm``
    gave, without importing ``scipy.stats``."""

    @pytest.mark.parametrize("n_qubits,seed", [(27, 27), (400, 2023)])
    def test_sigmas_equal_scipy_stats(self, n_qubits, seed):
        from scipy.stats import norm

        backend = falcon_backend(n_qubits=n_qubits, seed=seed)
        # Replay the backend's draws: angle, radius, centre, fidelity.
        rng = np.random.default_rng(seed)
        for q in backend.qubits:
            rng.uniform(0, 2 * np.pi), rng.uniform(0.4, 0.9)
            rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)
            z = norm.ppf(rng.uniform(0.97, 0.995))
            assert q.sigma == float(np.hypot(
                *(np.subtract(q.center_1, q.center_0)))) / (2 * z)

    def test_expected_fidelity_equals_scipy_stats(self):
        from scipy.stats import norm

        for q in falcon_backend(n_qubits=400, seed=5).qubits:
            assert q.expected_fidelity == float(
                norm.cdf(q.separation / (2 * q.sigma)))

    def test_quantile_and_cdf_bit_equal(self):
        from scipy.special import ndtr, ndtri
        from scipy.stats import norm

        rng = np.random.default_rng(0)
        p = rng.uniform(1e-6, 1 - 1e-6, 200_000)
        x = rng.uniform(-8.0, 8.0, 200_000)
        np.testing.assert_array_equal(ndtri(p), norm.ppf(p), strict=True)
        np.testing.assert_array_equal(ndtr(x), norm.cdf(x), strict=True)

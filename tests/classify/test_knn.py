"""Tests for the kNN reference classifier (Eq. 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify import KNNClassifier


@pytest.fixture
def simple() -> KNNClassifier:
    # Qubit 0: centers at (-1, 0) and (+1, 0).
    centers = np.array([[[-1.0, 0.0], [1.0, 0.0]]])
    return KNNClassifier(centers)


class TestClassification:
    def test_obvious_points(self, simple):
        q = np.zeros(2, dtype=int)
        pts = np.array([[-0.9, 0.1], [0.8, -0.2]])
        assert simple.classify(q, pts).tolist() == [0, 1]

    def test_decision_boundary_is_perpendicular_bisector(self, simple):
        q = np.zeros(3, dtype=int)
        pts = np.array([[0.0, 5.0], [-1e-6, 0.0], [1e-6, 0.0]])
        labels = simple.classify(q, pts)
        assert labels[1] == 0
        assert labels[2] == 1

    def test_per_qubit_centers_used(self):
        centers = np.array(
            [[[-1.0, 0.0], [1.0, 0.0]], [[0.0, -1.0], [0.0, 1.0]]]
        )
        clf = KNNClassifier(centers)
        pts = np.array([[0.5, 0.5], [0.5, 0.5]])
        labels = clf.classify(np.array([0, 1]), pts)
        assert labels.tolist() == [1, 1]
        labels = clf.classify(np.array([0, 1]), -pts)
        assert labels.tolist() == [0, 0]

    def test_interleaved_layout(self):
        centers = np.array(
            [[[-1.0, 0.0], [1.0, 0.0]], [[0.0, -1.0], [0.0, 1.0]]]
        )
        clf = KNNClassifier(centers)
        pts = np.array([[0.9, 0.0], [0.0, 0.9], [-0.9, 0.0], [0.0, -0.9]])
        assert clf.predict(pts).tolist() == [1, 1, 0, 0]

    @given(
        x=st.floats(-2, 2, allow_nan=False),
        y=st.floats(-2, 2, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_sqrt_shortcut_never_changes_labels(self, x, y):
        """The paper's radicand argument: sqrt is monotone, so comparing
        radicands gives identical labels (up to IEEE rounding ties, which
        we exclude -- near the decision boundary both answers are equally
        valid)."""
        from hypothesis import assume

        simple = KNNClassifier(np.array([[[-1.0, 0.0], [1.0, 0.0]]]))
        q = np.zeros(1, dtype=int)
        pts = np.array([[x, y]])
        d = simple.distances(q, pts)[0]
        assume(abs(d[0] - d[1]) > 1e-9 * max(d[0], d[1], 1.0))
        assert (
            simple.classify(q, pts, sqrt=False)[0]
            == simple.classify(q, pts, sqrt=True)[0]
        )


class TestCalibration:
    def test_calibrate_recovers_centers(self):
        rng = np.random.default_rng(0)
        true_centers = np.array(
            [[[-1.0, 0.5], [1.0, -0.5]], [[-2.0, 0.0], [2.0, 0.0]]]
        )
        shots0 = true_centers[:, 0, None, :] + rng.normal(0, 0.05, (2, 500, 2))
        shots1 = true_centers[:, 1, None, :] + rng.normal(0, 0.05, (2, 500, 2))
        clf = KNNClassifier.calibrate(shots0, shots1)
        np.testing.assert_allclose(clf.centers, true_centers, atol=0.02)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            KNNClassifier(np.zeros((3, 2)))

    def test_distances_shape_and_nonnegative(self, simple):
        d = simple.distances(np.zeros(4, dtype=int), np.random.randn(4, 2))
        assert d.shape == (4, 2)
        assert np.all(d >= 0)

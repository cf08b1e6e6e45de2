"""Nearest-centroid kNN classifier (paper Eq. 2) -- Python reference.

The calibration phase returns per-qubit center points for |0> and |1>;
classification assigns each I/Q measurement the label of the nearer
center.  The radicand shortcut ("comparing the radicands is sufficient...
the computationally expensive square root operation is unnecessary and
removed") is exposed explicitly so the ABL-2 ablation can quantify it.

:class:`KNNClassifier` implements the unified
:class:`~repro.classify.base.Classifier` protocol (``calibrate`` /
``predict`` / ``to_dict`` / ``from_dict`` / ``model_digest``) and is
registered as ``"knn"`` in :mod:`repro.classify.registry`; the
per-qubit ``classify`` methods remain the kernel-facing API the SoC
tests pin bit-identical labels against.
"""

from __future__ import annotations

import numpy as np

from repro.classify.base import Classifier, validate_points
from repro.classify.registry import register_classifier
from repro.errors import ValidationError

__all__ = ["KNNClassifier"]


@register_classifier
class KNNClassifier(Classifier):
    """Per-qubit nearest-centroid classifier.

    Parameters
    ----------
    centers:
        Array of shape (n_qubits, 2, 2): [qubit][class][i/q component].
    """

    kind = "knn"

    def __init__(self, centers: np.ndarray):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 3 or centers.shape[1:] != (2, 2):
            raise ValidationError(
                f"centers must have shape (n_qubits, 2, 2), "
                f"got {centers.shape}")
        if not np.isfinite(centers).all():
            raise ValidationError("centers contain non-finite components")
        self.centers = centers

    @property
    def n_qubits(self) -> int:
        return self.centers.shape[0]

    @classmethod
    def from_centers(cls, centers) -> "KNNClassifier":
        """Build from already-estimated (n_qubits, 2, 2) centers."""
        return cls(centers)

    # ------------------------------------------------------------------ #
    # The unified Classifier protocol
    # ------------------------------------------------------------------ #
    def predict(self, iq, qubit=None) -> np.ndarray:
        """Vectorized labels; ``qubit=None`` = interleaved layout."""
        pts = validate_points("iq", iq)
        return self.classify(self.resolve_qubit(pts, qubit), pts)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "centers": self.centers.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "KNNClassifier":
        return cls(np.asarray(data["centers"], dtype=float))

    # ------------------------------------------------------------------ #
    # Kernel-facing per-qubit API (what the SoC programs mirror)
    # ------------------------------------------------------------------ #
    def distances(
        self, qubit: np.ndarray, points: np.ndarray, sqrt: bool = False
    ) -> np.ndarray:
        """Distances (or radicands) to both centers: shape (n, 2)."""
        qubit = np.asarray(qubit, dtype=int)
        points = np.asarray(points, dtype=float)
        diff = points[:, None, :] - self.centers[qubit]
        radicand = np.sum(diff * diff, axis=2)
        return np.sqrt(radicand) if sqrt else radicand

    def classify(
        self, qubit: np.ndarray, points: np.ndarray, sqrt: bool = False
    ) -> np.ndarray:
        """Labels (0/1) for measurements of the given qubits.

        ``sqrt=True`` takes the square root first; by monotonicity the
        labels are identical (the shortcut's correctness argument), which
        the property tests assert.
        """
        d = self.distances(qubit, points, sqrt=sqrt)
        return (d[:, 1] < d[:, 0]).astype(int)

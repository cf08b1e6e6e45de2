"""Readout datasets: calibration + evaluation shots packaged for the
classifiers and the SoC kernels (Fig. 2(a) data products)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quantum.backend import QuantumBackend

__all__ = ["ReadoutDataset", "generate_dataset"]


@dataclass
class ReadoutDataset:
    """One experiment's worth of readout data.

    ``calibration_centers``: (nq, 2, 2) centers estimated from calibration
    shots (what the classifiers train on -- *not* the ground truth).
    ``states``: (n_shots, nq) prepared states; ``points``: matching I/Q.
    """

    backend: QuantumBackend
    calibration_centers: np.ndarray
    states: np.ndarray
    points: np.ndarray

    @property
    def n_qubits(self) -> int:
        return self.backend.n_qubits

    @property
    def n_measurements(self) -> int:
        return self.states.size

    def interleaved(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten shot-major: (qubit idx, truth labels, I/Q points).

        This is the layout the SoC kernels and
        ``Classifier.predict`` consume (qubit index cycles fastest).
        """
        n_shots, nq = self.states.shape
        qubit = np.tile(np.arange(nq), n_shots)
        truth = self.states.reshape(-1)
        pts = self.points.reshape(-1, 2)
        return qubit, truth, pts


def generate_dataset(
    backend: QuantumBackend,
    n_shots: int = 256,
    n_calibration_shots: int = 1024,
    seed: int | None = None,
) -> ReadoutDataset:
    """Calibrate, then measure random prepared states."""
    shots0, shots1 = backend.calibration_shots(n_calibration_shots)
    centers = np.stack(
        [shots0.mean(axis=1), shots1.mean(axis=1)], axis=1
    )
    states, points = backend.random_shots(n_shots, seed=seed)
    return ReadoutDataset(
        backend=backend,
        calibration_centers=centers,
        states=states,
        points=points,
    )

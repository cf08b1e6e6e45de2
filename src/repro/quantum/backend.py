"""Synthetic superconducting-qubit backend: the IBM-Falcon substitute.

The paper measures 27 qubits of an IBM Falcon processor through qiskit;
those cloud services are not available offline, so this module generates
statistically equivalent readout:

* each qubit has two I/Q plane "blobs" -- the mean signal for |0> and
  |1> with Gaussian scatter -- at a random angle and separation, like the
  pairs of black/gray dots in Fig. 2(a);
* readout assignment fidelity per qubit falls in the Falcon's typical
  97-99 % band (set by the separation-to-sigma ratio);
* decoherence: state fidelity decays as exp(-t/T2) with the paper's
  measured T2 ~ 110 us (Fig. 2(b)).

Everything is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QubitReadoutModel", "QuantumBackend", "falcon_backend"]

#: The paper's measured decoherence time on the IBM Falcon (s).
FALCON_T2 = 110e-6

#: Falcon qubit count (27-qubit processor of Fig. 2(a)).
FALCON_QUBITS = 27


@dataclass(frozen=True)
class QubitReadoutModel:
    """I/Q readout statistics of one qubit."""

    center_0: tuple[float, float]
    center_1: tuple[float, float]
    sigma: float

    @property
    def separation(self) -> float:
        d = np.subtract(self.center_1, self.center_0)
        return float(np.hypot(*d))

    @property
    def expected_fidelity(self) -> float:
        """Analytic single-shot assignment fidelity (2-D Gaussian)."""
        from scipy.special import ndtr

        return float(ndtr(self.separation / (2 * self.sigma)))


@dataclass
class QuantumBackend:
    """A collection of qubits with readout and decoherence models."""

    qubits: list[QubitReadoutModel]
    t2: float = FALCON_T2
    seed: int = 0
    _rng: np.ndarray = field(default=None, repr=False)  # type: ignore

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def centers(self) -> np.ndarray:
        """(n_qubits, 2, 2) center array -- the calibration ground truth."""
        return np.array(
            [[q.center_0, q.center_1] for q in self.qubits], dtype=float
        )

    # ------------------------------------------------------------------ #
    def measure(
        self, states: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Readout signals for prepared states.

        ``states``: (n_shots, n_qubits) of 0/1.  Returns I/Q points of
        shape (n_shots, n_qubits, 2).
        """
        rng = rng or self._rng
        states = np.asarray(states, dtype=int)
        if states.ndim != 2 or states.shape[1] != self.n_qubits:
            raise ValueError(
                f"states must have shape (n_shots, {self.n_qubits})"
            )
        centers = self.centers  # (nq, 2, 2)
        means = centers[np.arange(self.n_qubits)[None, :], states]
        noise = rng.normal(
            0.0,
            [[q.sigma] for q in self.qubits],
            (states.shape[0], self.n_qubits, 2),
        )
        return means + noise

    def calibration_shots(
        self, n_shots: int = 1024
    ) -> tuple[np.ndarray, np.ndarray]:
        """The paper's calibration procedure: measure all-|0> then all-|1>.

        Returns (shots_0, shots_1), each (n_qubits, n_shots, 2).
        """
        zeros = self.measure(np.zeros((n_shots, self.n_qubits), dtype=int))
        ones = self.measure(np.ones((n_shots, self.n_qubits), dtype=int))
        return zeros.transpose(1, 0, 2), ones.transpose(1, 0, 2)

    def random_shots(
        self, n_shots: int, seed: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Random prepared states + their readout.

        Returns (states (n_shots, nq), points (n_shots, nq, 2)).
        """
        rng = np.random.default_rng(self.seed + 1 if seed is None else seed)
        states = rng.integers(0, 2, (n_shots, self.n_qubits))
        return states, self.measure(states, rng=rng)

    # ------------------------------------------------------------------ #
    def state_fidelity(self, t: np.ndarray | float) -> np.ndarray:
        """Quantum-state fidelity after computation time ``t`` (Fig. 2(b)):
        exponential decay with the backend's T2."""
        return np.exp(-np.asarray(t, dtype=float) / self.t2)

    def time_budget(self) -> float:
        """The classification deadline: the decoherence time (Fig. 2(c))."""
        return self.t2


def falcon_backend(
    n_qubits: int = FALCON_QUBITS,
    seed: int = 27,
    fidelity_band: tuple[float, float] = (0.97, 0.995),
) -> QuantumBackend:
    """Build a Falcon-like backend (default: the paper's 27 qubits).

    Works for any qubit count -- the Fig. 7 scaling study builds
    thousands-of-qubit variants of the same model.
    """
    # Imported here: ``repro.serve`` reaches this module without scipy.
    from scipy.special import ndtri

    rng = np.random.default_rng(seed)
    qubits = []
    for _ in range(n_qubits):
        angle = rng.uniform(0, 2 * np.pi)
        radius = rng.uniform(0.4, 0.9)
        mid_i = rng.uniform(-0.7, 0.7)
        mid_q = rng.uniform(-0.7, 0.7)
        c0 = (mid_i - radius * np.cos(angle), mid_q - radius * np.sin(angle))
        c1 = (mid_i + radius * np.cos(angle), mid_q + radius * np.sin(angle))
        fidelity = rng.uniform(*fidelity_band)
        # Invert the fidelity formula (the normal CDF) to pick sigma.
        z = ndtri(fidelity)
        sigma = float(np.hypot(*(np.subtract(c1, c0)))) / (2 * z)
        qubits.append(QubitReadoutModel(c0, c1, sigma))
    return QuantumBackend(qubits=qubits, seed=seed)

"""The unified classifier contract: one public API for every readout model.

Every consumer of the classification layer (the experiments, the SoC
kernels, the examples) picks a model by name and trains it through one
API instead of a concrete class's constructor.  The service layer
(:mod:`repro.serve`) relies on the same API being a stateless,
serializable, versioned *protocol* it can load once, share read-only
across worker threads, and ship across process or wire boundaries.

:class:`Classifier` is that protocol.  Every implementation provides:

``calibrate(shots_0, shots_1)``
    Train from per-qubit calibration shots -- two ``(n_qubits,
    n_shots, 2)`` arrays measured with every qubit prepared in |0> /
    |1> (the paper's Section-II calibration procedure).  Inputs are
    validated *up front*: wrong rank, empty shot sets, or non-finite
    I/Q raise a typed :class:`~repro.errors.ValidationError` naming the
    offending field instead of failing deep inside numpy.
``predict(iq, qubit=None)``
    Vectorized labels for a batch of I/Q measurements.  ``qubit=None``
    means the shot-major interleaved layout (qubit index cycles
    fastest) -- the layout the SoC kernels and the serving path
    consume.  Row-wise independent by construction, so a micro-batcher
    may concatenate many requests into one call and split the labels
    without changing a single bit.
``to_dict()`` / ``from_dict(data)``
    A plain-data round trip (JSON-able scalars and lists only), so a
    calibrated model crosses process and wire boundaries and lands in
    provenance records.
``model_digest``
    A stable content digest of the serialized model
    (:func:`~repro.runtime.digest.stable_digest`), the model *version*
    the service reports: two calibrations agree on their digest exactly
    when they would emit identical labels forever.

Concrete models register by name in :mod:`repro.classify.registry`
(``get_classifier("knn" | "hdc")``), the same single-step plug-in
pattern :mod:`repro.experiments.registry` uses for experiments.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ValidationError

__all__ = ["Classifier", "validate_points", "validate_shots"]


def validate_shots(field: str, shots) -> np.ndarray:
    """Validate one calibration-shot array; returns it as float ndarray.

    The contract is shape ``(n_qubits, n_shots, 2)`` with at least one
    qubit and one shot and every I/Q component finite.  Violations
    raise :class:`~repro.errors.ValidationError` naming ``field`` --
    the up-front rejection the edge-tier scenarios in ``tests/assault``
    expect, instead of a shape/NaN surprise deep inside ``mean()``.
    """
    try:
        arr = np.asarray(shots, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{field} is not a numeric array: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError(
            f"{field} must have shape (n_qubits, n_shots, 2), "
            f"got {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValidationError(
            f"{field} is empty: shape {arr.shape} has no "
            f"{'qubits' if arr.shape[0] == 0 else 'shots'}")
    if not np.isfinite(arr).all():
        bad = int(np.size(arr) - np.isfinite(arr).sum())
        raise ValidationError(
            f"{field} contains {bad} non-finite I/Q component(s)")
    return arr


def validate_points(field: str, points) -> np.ndarray:
    """Validate a measurement batch; returns it as a float (n, 2) array.

    Accepts one point ``(2,)`` or a batch ``(n, 2)``; anything else --
    including NaN/inf I/Q -- raises a typed
    :class:`~repro.errors.ValidationError` naming ``field``.
    """
    try:
        arr = np.atleast_2d(np.asarray(points, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{field} is not a numeric array: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(
            f"{field} must have shape (n, 2) I/Q pairs, got "
            f"{np.asarray(points).shape}")
    if not np.isfinite(arr).all():
        bad = int(np.size(arr) - np.isfinite(arr).sum())
        raise ValidationError(
            f"{field} contains {bad} non-finite I/Q component(s)")
    return arr


class Classifier(abc.ABC):
    """The public readout-classifier protocol (see module docstring)."""

    #: Registry name of the concrete model ("knn", "hdc", ...).
    kind: str = ""

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    @classmethod
    def calibrate(cls, shots_0, shots_1, **kwargs) -> "Classifier":
        """Train from |0>/|1> calibration shots (validated up front).

        The centers are the per-qubit shot means; ``kwargs`` go to
        :meth:`from_centers`.
        """
        s0 = validate_shots("shots_0", shots_0)
        s1 = validate_shots("shots_1", shots_1)
        if s0.shape[0] != s1.shape[0]:
            raise ValidationError(
                f"shots_0/shots_1 disagree on qubit count: "
                f"{s0.shape[0]} != {s1.shape[0]}")
        centers = np.stack([s0.mean(axis=1), s1.mean(axis=1)], axis=1)
        return cls.from_centers(centers, **kwargs)

    @classmethod
    @abc.abstractmethod
    def from_centers(cls, centers, **kwargs) -> "Classifier":
        """Build from already-estimated (n_qubits, 2, 2) centers."""

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def predict(self, iq, qubit=None) -> np.ndarray:
        """Labels (0/1 ints) for a batch of I/Q points.

        ``qubit`` maps each row to its qubit index; ``None`` selects
        the interleaved layout (``arange(n) % n_qubits``).
        """

    @property
    @abc.abstractmethod
    def n_qubits(self) -> int:
        """How many qubits this model was calibrated for."""

    # ------------------------------------------------------------------ #
    # Serialization + versioning
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def to_dict(self) -> dict:
        """Plain-data (JSON-able) form; ``from_dict`` inverts it."""

    @classmethod
    @abc.abstractmethod
    def from_dict(cls, data: dict) -> "Classifier":
        """Rebuild a model serialized by :meth:`to_dict`."""

    @property
    def model_digest(self) -> str:
        """Stable content digest of the serialized model (its version)."""
        from repro.runtime.digest import stable_digest

        return stable_digest(self.to_dict())

    # ------------------------------------------------------------------ #
    def resolve_qubit(self, iq: np.ndarray, qubit) -> np.ndarray:
        """Per-row qubit indices, defaulting to the interleaved layout."""
        if qubit is None:
            return np.arange(len(iq)) % self.n_qubits
        q = np.asarray(qubit, dtype=int)
        if q.shape != (len(iq),):
            raise ValidationError(
                f"qubit must have one index per point: got shape "
                f"{q.shape} for {len(iq)} point(s)")
        if len(q) and (q.min() < 0 or q.max() >= self.n_qubits):
            raise ValidationError(
                f"qubit indices must be in [0, {self.n_qubits}), got "
                f"[{q.min()}, {q.max()}]")
        return q

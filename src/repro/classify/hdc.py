"""Binary hyperdimensional-computing classifier (paper Eqs. 3-4).

128-bit hypervectors; a point P = (x, y) is encoded as the XOR bind of
its quantized coordinates' item hypervectors (Eq. 3).  Class prototypes
C0/C1 come from encoding the calibration centers; classification compares
Hamming distances, computed with one XOR + popcount after the
precomputation trick of Eq. 4 (the ``X_{C xor x-hat}`` tables that cost
"only 256 bytes" of extra footprint).

This module is the Python reference; :mod:`repro.soc.programs` runs the
same algorithm on the RV64 ISS, and tests assert label agreement.
:class:`HDCClassifier` implements the unified
:class:`~repro.classify.base.Classifier` protocol and is registered as
``"hdc"``; pre-estimated centers train through
:meth:`HDCClassifier.from_centers`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.classify.base import Classifier, validate_points, validate_shots
from repro.classify.registry import register_classifier
from repro.errors import ValidationError

__all__ = ["HDCClassifier", "HDCEncoder", "popcount64"]

DIMENSION = 128
"""Hypervector dimension in bits ("a size of 128 bits ... is sufficient")."""

WORDS = DIMENSION // 64
LEVELS = 16
"""Quantization levels per axis (2 x 16 = 32 item hypervectors total)."""

VALUE_RANGE = (-2.0, 2.0)
"""I/Q range covered by the level item hypervectors."""

_POPCOUNT_TABLE = np.array(
    [bin(i).count("1") for i in range(65536)], dtype=np.int64
)


def popcount64(words: np.ndarray) -> np.ndarray:
    """Population count of uint64 values (vectorized, 16-bit table)."""
    w = np.asarray(words, dtype=np.uint64)
    count = np.zeros(w.shape, dtype=np.int64)
    for shift in (0, 16, 32, 48):
        count += _POPCOUNT_TABLE[
            ((w >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.int64)
        ]
    return count


@dataclass(frozen=True)
class HDCEncoder:
    """Item memory: one random hypervector per quantization level/axis."""

    x_items: np.ndarray  # (LEVELS, WORDS) uint64
    y_items: np.ndarray

    @classmethod
    def random(cls, seed: int = 42) -> "HDCEncoder":
        """Generate the item memory ("constant and generated once during
        the program compilation").

        Level hypervectors are *linearly correlated*: the first level is
        random and each subsequent level flips a fresh slice of
        ``DIMENSION/2/(LEVELS-1)`` bits, so Hamming distance between two
        levels grows with their separation -- the standard HDC encoding
        for continuous quantities (without it, nearest-prototype
        classification of noisy I/Q points would be chance).
        """
        rng = np.random.default_rng(seed)

        def level_family() -> np.ndarray:
            base_bits = rng.integers(0, 2, DIMENSION).astype(np.uint8)
            order = rng.permutation(DIMENSION)
            flips_per_level = DIMENSION // 2 // (LEVELS - 1)
            items = np.empty((LEVELS, WORDS), dtype=np.uint64)
            bits = base_bits.copy()
            for level in range(LEVELS):
                if level:
                    start = (level - 1) * flips_per_level
                    positions = order[start : start + flips_per_level]
                    bits[positions] ^= 1
                words = np.zeros(WORDS, dtype=np.uint64)
                for k in range(DIMENSION):
                    if bits[k]:
                        words[k // 64] |= np.uint64(1) << np.uint64(k % 64)
                items[level] = words
            return items

        return cls(x_items=level_family(), y_items=level_family())

    @staticmethod
    def quantize(values: np.ndarray) -> np.ndarray:
        """Map I/Q values onto [0, LEVELS) level indices."""
        lo, hi = VALUE_RANGE
        scale = LEVELS / (hi - lo)
        idx = np.floor((np.asarray(values, dtype=float) - lo) * scale)
        return np.clip(idx, 0, LEVELS - 1).astype(int)

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Encode points (n, 2) into hypervectors (n, WORDS) -- Eq. 3.

        Malformed points (wrong shape, NaN/inf I/Q) are rejected with a
        typed :class:`~repro.errors.ValidationError` up front instead of
        quantizing garbage into silently wrong prototypes.
        """
        points = validate_points("points", points)
        xq = self.quantize(points[:, 0])
        yq = self.quantize(points[:, 1])
        return self.x_items[xq] ^ self.y_items[yq]

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "x_items": self.x_items.tolist(),
            "y_items": self.y_items.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HDCEncoder":
        return cls(
            x_items=np.asarray(data["x_items"], dtype=np.uint64),
            y_items=np.asarray(data["y_items"], dtype=np.uint64),
        )


@register_classifier
class HDCClassifier(Classifier):
    """Per-qubit HDC classifier with the Eq.-4 precomputation."""

    kind = "hdc"

    def __init__(self, encoder: HDCEncoder, prototypes: np.ndarray):
        """``prototypes``: (n_qubits, 2, WORDS) class hypervectors."""
        prototypes = np.asarray(prototypes, dtype=np.uint64)
        if prototypes.ndim != 3 or prototypes.shape[1] != 2:
            raise ValidationError(
                f"prototypes must have shape (n_qubits, 2, WORDS), "
                f"got {prototypes.shape}")
        self.encoder = encoder
        self.prototypes = prototypes
        # Eq. 4: precompute X_{C xor x-hat} per class and x level.
        # Shape (n_qubits, 2, LEVELS, WORDS).
        self.xc_tables = (
            prototypes[:, :, None, :] ^ encoder.x_items[None, None, :, :]
        )

    @property
    def n_qubits(self) -> int:
        return self.prototypes.shape[0]

    @classmethod
    def calibrate(cls, shots_0, shots_1, *, encoder: HDCEncoder
                  | None = None, seed: int = 42) -> "HDCClassifier":
        """Train from |0>/|1> calibration shots (the unified protocol).

        ``shots_0``/``shots_1``: (n_qubits, n_shots, 2) calibration
        shots; centers are their per-qubit means, encoded into
        prototypes.  The item memory defaults to the seeded
        :meth:`HDCEncoder.random` ("constant and generated once").
        For pre-estimated centers use :meth:`from_centers`.
        """
        s0 = validate_shots("shots_0", shots_0)
        s1 = validate_shots("shots_1", shots_1)
        if s0.shape[0] != s1.shape[0]:
            raise ValidationError(
                f"shots_0/shots_1 disagree on qubit count: "
                f"{s0.shape[0]} != {s1.shape[0]}")
        centers = np.stack([s0.mean(axis=1), s1.mean(axis=1)], axis=1)
        return cls.from_centers(centers, encoder=encoder, seed=seed)

    @classmethod
    def from_centers(cls, centers, *, encoder: HDCEncoder | None = None,
                     seed: int = 42) -> "HDCClassifier":
        """Encode per-qubit calibration centers into prototypes."""
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 3 or centers.shape[1:] != (2, 2):
            raise ValidationError(
                f"centers must have shape (n_qubits, 2, 2), "
                f"got {centers.shape}")
        if encoder is None:
            encoder = HDCEncoder.random(seed=seed)
        protos = np.stack(
            [encoder.encode(centers[:, 0, :]),
             encoder.encode(centers[:, 1, :])],
            axis=1,
        )
        return cls(encoder, protos)

    # ------------------------------------------------------------------ #
    # The unified Classifier protocol
    # ------------------------------------------------------------------ #
    def predict(self, iq, qubit=None) -> np.ndarray:
        """Vectorized labels; ``qubit=None`` = interleaved layout."""
        pts = validate_points("iq", iq)
        return self.classify(self.resolve_qubit(pts, qubit), pts)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "encoder": self.encoder.to_dict(),
            "prototypes": self.prototypes.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HDCClassifier":
        return cls(
            HDCEncoder.from_dict(data["encoder"]),
            np.asarray(data["prototypes"], dtype=np.uint64),
        )

    # ------------------------------------------------------------------ #
    def hamming_distances(
        self, qubit: np.ndarray, points: np.ndarray,
        use_precomputed: bool = True,
    ) -> np.ndarray:
        """Hamming distances to both prototypes: (n, 2)."""
        qubit = np.asarray(qubit, dtype=int)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        xq = self.encoder.quantize(points[:, 0])
        yq = self.encoder.quantize(points[:, 1])
        y_hat = self.encoder.y_items[yq]  # (n, WORDS)
        if use_precomputed:
            # d_i = popcount(X_{Ci xor x-hat} xor y-hat)      (Eq. 4)
            xc = self.xc_tables[qubit, :, xq, :]  # (n, 2, WORDS)
            diff = xc ^ y_hat[:, None, :]
        else:
            # d_i = popcount(Ci xor (x-hat xor y-hat))        (naive)
            m_hat = self.encoder.x_items[xq] ^ y_hat
            diff = self.prototypes[qubit] ^ m_hat[:, None, :]
        return popcount64(diff).sum(axis=2)

    def classify(
        self, qubit: np.ndarray, points: np.ndarray,
        use_precomputed: bool = True,
    ) -> np.ndarray:
        """Labels (0/1) by nearest prototype in Hamming distance."""
        d = self.hamming_distances(qubit, points,
                                   use_precomputed=use_precomputed)
        return (d[:, 1] < d[:, 0]).astype(int)

    def classify_interleaved(self, points: np.ndarray) -> np.ndarray:
        """Classify shot-major interleaved measurements."""
        n = len(points)
        qubit = np.arange(n) % self.n_qubits
        return self.classify(qubit, points)

    # ------------------------------------------------------------------ #
    def kernel_tables(self, qubit: int = 0) -> dict[str, np.ndarray]:
        """Tables for the RV64 kernel (single-qubit prototype form).

        The ISS kernel uses one prototype pair (the paper's footprint
        accounting: two 16-entry X_{C xor x-hat} tables = 512 B, "the
        memory footprint is increased by only 256 bytes" per class).
        """
        return {
            "xc0": self.xc_tables[qubit, 0],
            "xc1": self.xc_tables[qubit, 1],
            "y_items": self.encoder.y_items,
            "x_items": self.encoder.x_items,
            "c0": self.prototypes[qubit, 0],
            "c1": self.prototypes[qubit, 1],
        }

    def memory_overhead_bytes(self) -> int:
        """Extra executable footprint of the Eq.-4 precomputation."""
        # Two precomputed x tables replace the one x item table.
        return LEVELS * WORDS * 8

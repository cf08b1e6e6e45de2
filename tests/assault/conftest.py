"""The ``ctx`` fixture: one seeded sandbox per corpus scenario."""

from __future__ import annotations

import random
import zlib
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.provenance import RunLedger
from repro.runtime import ResultCache
from tests.assault.chaos import ChaosMonkey

#: The campaign seed; each scenario replays from ``SEED ^ crc32(name)``.
SEED = 2023


def make_ctx(name: str, root: Path) -> SimpleNamespace:
    """Throwaway cache and ledger under ``root``, plus a
    :class:`ChaosMonkey` and an RNG seeded from the scenario ``name``,
    so chaos cannot leak between scenarios and each one replays
    bit-identically alone."""
    seed = SEED ^ zlib.crc32(name.encode())
    return SimpleNamespace(
        seed=seed,
        rng=random.Random(seed ^ 0x5EED),
        chaos=ChaosMonkey(seed),
        cache=ResultCache(root / "cache", namespace="assault"),
        ledger=RunLedger(root / "runs"),
    )


@pytest.fixture
def ctx(request, tmp_path):
    """:func:`make_ctx` for the scenario named by the test (its name
    without the ``test_`` prefix), sandboxed under ``tmp_path``."""
    return make_ctx(request.node.originalname.removeprefix("test_"),
                    tmp_path)

"""Shared fixtures: expensive artifacts built once per session.

The measurement campaign and the calibration runs are deterministic, so a
single session-scoped instance serves every test that needs them.
"""

from __future__ import annotations

import pytest

from repro.cells import CharacterizationConfig, TechModels, build_library
from repro.device import (
    Calibrator,
    MeasurementCampaign,
    default_nfet,
    default_pfet,
    golden_nfet,
    golden_pfet,
)


@pytest.fixture(autouse=True)
def _isolated_runs_dir(tmp_path, monkeypatch):
    """Point the provenance run ledger at a throwaway directory.

    CLI invocations append RunRecords by default; without this, tests
    calling ``main()`` would grow a ``.repro/runs`` ledger inside the
    repository checkout.
    """
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))


@pytest.fixture(autouse=True)
def _uncached(monkeypatch):
    """Run every test with the disk cache off.

    ``REPRO_CACHE_DIR`` alone turns the cache on; a value inherited from
    the shell would serve pinned or monkeypatched runs from an earlier
    process.  Cache tests set it themselves.
    """
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


@pytest.fixture(scope="session")
def campaign() -> MeasurementCampaign:
    """The deterministic synthetic probe-station campaign."""
    return MeasurementCampaign(seed=2023)


@pytest.fixture(scope="session")
def iv_datasets(campaign):
    """Both polarities' measured curves (dict with keys 'n' and 'p')."""
    return campaign.run(n_points=61)


@pytest.fixture(scope="session")
def calibrated_nfet(iv_datasets):
    """Full staged calibration result for the n-FinFET."""
    return Calibrator(iv_datasets["n"], default_nfet()).calibrate()


@pytest.fixture(scope="session")
def calibrated_pfet(iv_datasets):
    """Full staged calibration result for the p-FinFET."""
    return Calibrator(iv_datasets["p"], default_pfet()).calibrate()


@pytest.fixture(scope="session")
def models() -> TechModels:
    """The golden device models every library build characterizes."""
    return TechModels(golden_nfet(), golden_pfet())


@pytest.fixture(scope="session")
def lib300(models):
    """Full ~200-cell library at the 300 K corner."""
    return build_library(
        models, CharacterizationConfig(temperature_k=300.0), name="full300"
    )


@pytest.fixture(scope="session")
def lib10(models):
    """Full ~200-cell library at the 10 K corner."""
    return build_library(
        models, CharacterizationConfig(temperature_k=10.0), name="full10"
    )

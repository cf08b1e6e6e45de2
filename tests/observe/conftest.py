"""Observe tests touch the telemetry globals; always clean up."""

from __future__ import annotations

import pytest

from repro import telemetry


@pytest.fixture(autouse=True)
def clean_observability():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()

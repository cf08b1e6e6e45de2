"""Stopping a server that still has clients connected is quiet."""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro.serve import ModelRegistry
from repro.serve.server import ClassifierServer


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry.calibrated(n_qubits=2, n_calibration_shots=32, seed=3)


def test_stop_with_live_client_logs_no_error(registry, caplog):
    async def session():
        server = ClassifierServer(registry)
        await server.start()
        _, writer = await asyncio.open_connection(server.host, server.port)
        while server.counters()["serve.connections"] == 0:
            await asyncio.sleep(0.005)
        await server.stop()
        # Let the stream protocol's done-callbacks on the connection run.
        await asyncio.sleep(0.01)
        writer.close()
        return server

    with caplog.at_level(logging.ERROR):
        server = asyncio.run(session())
    assert server.counters()["serve.connections"] == 1
    assert [r.getMessage() for r in caplog.records
            if r.levelno >= logging.ERROR] == []

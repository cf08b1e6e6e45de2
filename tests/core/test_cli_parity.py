"""The CLI's experiment fan-out gives the serial loop's answers.

``repro <group> --jobs N`` runs the experiments through
``_run_parallel`` (a process pool over the prebuilt study); without
``--jobs`` they run through ``_run_serial``.  Both must yield the same
figures of merit and fidelity verdicts, experiment by experiment.
"""

from __future__ import annotations

import dataclasses

from repro.__main__ import _expand, _run_parallel, _run_serial
from repro.core import StudyConfig


def test_extensions_group_serial_parallel_parity():
    # The whole group, ~15 s of CPU for both sides together.
    specs = _expand("extensions")
    config = StudyConfig(fast=True, shots=2, jobs=1)
    serial = [record for _, record in _run_serial(specs, config)]
    parallel = [record for _, record in _run_parallel(
        specs, dataclasses.replace(config, jobs=2))]

    assert [r.experiment for r in parallel] == [s.name for s in specs]
    assert [r.experiment for r in serial] == [s.name for s in specs]
    for a, b in zip(serial, parallel):
        assert a.metrics == b.metrics, a.experiment
        assert a.fidelity["verdict"] == b.fidelity["verdict"], a.experiment
        assert a.fidelity == b.fidelity, a.experiment

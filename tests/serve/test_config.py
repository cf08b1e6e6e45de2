"""ServeConfig validation, the registry warm-up pool, the serve CLI."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.serve import ModelRegistry, ServeConfig

# Every numeric field with the values that must be refused.
_BAD_VALUES = [
    ("port", -1), ("port", 65536), ("port", 70000),
    ("batch_window_ms", 0), ("batch_window_ms", -1.0),
    ("max_queue", 0), ("max_queue", -1),
    ("default_deadline_ms", 0), ("default_deadline_ms", -5.0),
    ("write_timeout_s", 0), ("write_timeout_s", -0.1),
    ("sndbuf_bytes", 0), ("sndbuf_bytes", -1),
    ("slo_latency_ms", 0), ("slo_latency_ms", -1.0),
]


def test_every_numeric_field_is_covered():
    fields = {f.name for f in dataclasses.fields(ServeConfig)}
    assert len(fields) == 8
    assert {name for name, _ in _BAD_VALUES} == fields - {"host"}


@pytest.mark.parametrize("field, value", _BAD_VALUES)
def test_invalid_field_raises_config_error(field, value):
    with pytest.raises(ConfigError) as err:
        ServeConfig(**{field: value})
    assert err.value.field == field


@pytest.mark.parametrize("port", [0, 1, 65535])
def test_port_range_is_inclusive(port):
    assert ServeConfig(port=port).port == port


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_cli_rejects_bad_port(port, capsys):
    from repro.__main__ import main

    assert main(["serve", "--port", port]) == 2
    out = capsys.readouterr().out
    errors = [ln for ln in out.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "port" in errors[0]
    assert "Traceback" not in out


@pytest.mark.parametrize("jobs, backend", [(1, "serial"), (2, "thread")])
def test_calibrated_warms_up_on_jobs_threads(monkeypatch, jobs, backend):
    from repro.serve import models

    calls = []
    real = models.get_executor

    def spy(*args, **kwargs):
        executor = real(*args, **kwargs)
        calls.append(executor)
        return executor

    monkeypatch.setattr(models, "get_executor", spy)
    registry = ModelRegistry.calibrated(
        n_qubits=3, n_calibration_shots=32, seed=5, jobs=jobs)
    assert registry.names() == ["hdc", "knn"]
    assert [(e.backend, e.jobs) for e in calls] == [(backend, jobs)]

"""Warm model registry: calibrate once, share read-only forever.

The service never calibrates on the request path.  A
:class:`ModelRegistry` is built *before* the socket opens -- either
from already-trained :class:`~repro.classify.base.Classifier` instances
or via :meth:`ModelRegistry.calibrated`, which generates one set of
backend calibration shots and trains every registered model kind from
it in parallel on the existing runtime
:class:`~repro.runtime.executor.Executor` (thread backend: the models
are plain numpy state, loaded once and shared read-only across the
event loop and the predict worker threads).

Lookups are dict reads; an unknown name is a typed
:class:`UnknownModelError` (the 404 path), never a lazy calibration
that would stall a batch window.
"""

from __future__ import annotations

import time

from repro import telemetry
from repro.classify import Classifier, classifier_names, get_classifier
from repro.errors import ServeProtocolError, ValidationError
from repro.quantum import falcon_backend
from repro.runtime.executor import get_executor

__all__ = ["ModelRegistry", "UnknownModelError"]


class UnknownModelError(ServeProtocolError):
    """The request named a model the registry does not hold (404)."""

    code = 404


class ModelRegistry:
    """Name -> warm :class:`~repro.classify.base.Classifier` mapping."""

    def __init__(self, models: dict[str, Classifier] | None = None):
        self._models: dict[str, Classifier] = {}
        for name, model in (models or {}).items():
            self.add(name, model)

    # ------------------------------------------------------------------ #
    def add(self, name: str, model: Classifier) -> None:
        if not name:
            raise ValidationError("model name must be non-empty")
        if not isinstance(model, Classifier):
            raise ValidationError(
                f"model {name!r} does not implement the Classifier "
                f"protocol: {type(model).__name__}")
        self._models[name] = model

    def get(self, name: str) -> Classifier:
        try:
            return self._models[name]
        except KeyError:
            raise UnknownModelError(
                f"no model {name!r} loaded (available: "
                f"{', '.join(self.names()) or 'none'})",
                field="model") from None

    def names(self) -> list[str]:
        return sorted(self._models)

    def digests(self) -> dict[str, str]:
        """Model name -> content digest (the versions the service
        reports and the session RunRecord pins)."""
        return {name: self._models[name].model_digest
                for name in self.names()}

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, name: str) -> bool:
        return name in self._models

    # ------------------------------------------------------------------ #
    @classmethod
    def calibrated(
        cls,
        names: list[str] | None = None,
        *,
        n_qubits: int = 27,
        n_calibration_shots: int = 256,
        seed: int = 2023,
        jobs: int | None = None,
    ) -> "ModelRegistry":
        """Calibrate every requested model kind from one shot set.

        One backend, one ``calibration_shots`` draw, then each kind's
        ``calibrate(shots_0, shots_1)`` runs on a thread
        :class:`~repro.runtime.executor.Executor` of ``jobs`` workers
        (``None``: ``REPRO_JOBS``, else serial) -- the resulting models
        are immutable numpy state, safe to share read-only across every
        serving thread.
        """
        names = list(names) if names else classifier_names()
        t0 = time.perf_counter()
        with telemetry.span("serve.warm_load", models=",".join(names),
                            n_qubits=n_qubits):
            backend = falcon_backend(n_qubits=n_qubits, seed=seed)
            shots_0, shots_1 = backend.calibration_shots(
                n_calibration_shots)

            def train(name: str) -> Classifier:
                return get_classifier(name).calibrate(shots_0, shots_1)

            executor = get_executor(jobs, "thread")
            models = executor.map(train, names)
        registry = cls(dict(zip(names, models)))
        telemetry.gauge("serve.models", len(registry))
        telemetry.observe("serve.warm_load_s", time.perf_counter() - t0)
        return registry

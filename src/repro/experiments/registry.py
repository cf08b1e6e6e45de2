"""The formal experiment API: specs, a registry, and a decorator.

Every paper artifact (table, figure, extension) is one
:class:`ExperimentSpec`: a name, a human title, a ``run(study, config)``
producing the data products, and a ``report(result)`` rendering them as
the printable artifact.  Modules register their spec with the
:func:`experiment` decorator::

    @experiment("table1", "Table 1 -- SoC timing closure",
                report=report, order=40)
    def _experiment(study, config):
        return run(study)

The CLI (``python -m repro``) is *generated* from this registry -- its
subcommands, ``repro all`` expansion, the parallel experiment fan-out
and ``repro profile`` all consume the same specs, so registering an
experiment is the single step that plugs it into everything.

Conventions:

* ``run(study, config)`` receives the shared :class:`CryoStudy` (or
  ``None`` when ``needs_study`` is false) and the run's
  :class:`~repro.core.flow.StudyConfig`;
* ``report(result)`` is pure formatting: result in, string out;
* ``order`` fixes the artifact sequence of ``repro all`` (ascending);
* ``group`` names an umbrella CLI command (e.g. ``extensions``) that
  expands to every member, in order;
* ``in_all=False`` keeps an experiment CLI-reachable but out of
  ``repro all`` (e.g. the heavy SoC-configuration sweep).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro import telemetry
from repro.provenance.fidelity import FidelityReport, FidelitySpec

__all__ = [
    "ExperimentSpec",
    "all_specs",
    "experiment",
    "get",
    "groups",
    "names",
    "register",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One self-contained experiment: how to run it and report it."""

    name: str
    title: str
    run: Callable
    """``run(study, config) -> result`` -- the data products."""
    report: Callable
    """``report(result) -> str`` -- the printable artifact."""
    needs_study: bool = True
    """Whether ``run`` wants the shared :class:`CryoStudy` (False: it
    builds everything it needs, and the CLI passes ``study=None``)."""
    group: str | None = None
    """Umbrella CLI command this experiment expands under, if any."""
    order: int = 0
    """Position in ``repro all`` (ascending)."""
    in_all: bool = True
    """Whether ``repro all`` includes this experiment."""
    fidelity: FidelitySpec | None = None
    """Paper-anchored figures of merit checked after every run (the
    provenance layer's PASS/WARN/FAIL verdict); None = unchecked."""

    def run_result(self, study, config):
        """The raw result dict (what fidelity checks extract from)."""
        return self.run(study if self.needs_study else None, config)

    def check_fidelity(self, result) -> FidelityReport | None:
        """Grade ``result`` against the declared spec, if any."""
        if self.fidelity is None:
            return None
        return self.fidelity.evaluate(self.name, result)

    def run_recorded(self, study, config, *, kind: str = "experiment",
                     sampler=None):
        """Run, report and grade; return ``(report text, RunRecord)``.

        The one place an experiment's
        :class:`~repro.provenance.records.RunRecord` is built.  The run
        goes under ``sampler`` (a fresh
        :class:`~repro.observe.sampler.ResourceSampler` by default), so
        the record carries peak RSS / CPU utilization.
        """
        from repro.observe.sampler import ResourceSampler
        from repro.provenance.records import RunRecord, telemetry_snapshot

        sampler = sampler or ResourceSampler()
        start_ts = telemetry.iso_ts(time.time())
        t0 = time.perf_counter()
        with sampler:
            result = self.run_result(study, config)
        wall_s = time.perf_counter() - t0
        text = self.report(result)
        fidelity = self.check_fidelity(result)
        record = RunRecord(
            experiment=self.name,
            kind=kind,
            start_ts=start_ts,
            wall_s=wall_s,
            config_digest=(config.config_digest() if config is not None
                           else None),
            telemetry=telemetry_snapshot(study if self.needs_study
                                         else None),
            resources=sampler.summary(),
            metrics=fidelity.metrics if fidelity is not None else {},
            fidelity=fidelity.to_dict() if fidelity is not None else None,
        )
        return text, record


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec; duplicate names are a programming error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} already registered")
    if spec.group == spec.name:
        raise ValueError(f"experiment {spec.name!r} cannot group itself")
    _REGISTRY[spec.name] = spec
    return spec


def experiment(
    name: str,
    title: str,
    *,
    report: Callable,
    needs_study: bool = True,
    group: str | None = None,
    order: int = 0,
    in_all: bool = True,
    fidelity: FidelitySpec | None = None,
) -> Callable:
    """Decorator form of :func:`register`; decorates the run callable."""

    def decorate(run: Callable) -> Callable:
        register(ExperimentSpec(
            name=name, title=title, run=run, report=report,
            needs_study=needs_study, group=group, order=order,
            in_all=in_all, fidelity=fidelity,
        ))
        return run

    return decorate


# ---------------------------------------------------------------------- #
# Lookup
# ---------------------------------------------------------------------- #
def get(name: str) -> ExperimentSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"no experiment {name!r} registered (known: {known})"
        ) from None


def names() -> list[str]:
    """Registered experiment names, in ``repro all`` order."""
    return [spec.name for spec in all_specs()]


def all_specs() -> list[ExperimentSpec]:
    """Every registered spec, ordered for ``repro all``."""
    return sorted(_REGISTRY.values(), key=lambda s: (s.order, s.name))


def groups() -> dict[str, list[ExperimentSpec]]:
    """Umbrella command -> ordered member specs."""
    out: dict[str, list[ExperimentSpec]] = {}
    for spec in all_specs():
        if spec.group:
            out.setdefault(spec.group, []).append(spec)
    return out


"""Cell-library container: the product of a characterization run.

A :class:`CellLibrary` is what logic synthesis, STA and power analysis
consume -- the in-memory equivalent of the Liberty files the paper's flow
produces (Fig. 4 outputs, one per temperature corner).

:func:`build_library` is the library factory and one of the flow's three
hot fan-outs: every cell characterizes independently, so the build
distributes cells over the :mod:`repro.runtime` executor (``jobs=`` /
``REPRO_JOBS``) and aggregates in catalog order -- bit-identical to the
serial build by construction.  With ``REPRO_CACHE_DIR`` set (or
``cache=True``) finished libraries are memoized on disk keyed by the
content digest of everything that shaped them (models, config, catalog,
strictness), so repeat runs skip the work entirely.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro import telemetry
from repro.cells.catalog import full_catalog
from repro.cells.cell import SequentialCell, StandardCell
from repro.cells.characterize import (
    CellCharacterizer,
    CharacterizationConfig,
    CharacterizedCell,
    TechModels,
)
from repro.errors import CharacterizationError
from repro.reliability.coverage import CoverageReport
from repro.runtime import (
    ExecutorError,
    ResultCache,
    default_enabled,
    get_executor,
    stable_digest,
)

__all__ = ["CellLibrary", "build_library"]

_LOG = logging.getLogger(__name__)


@dataclass
class CellLibrary:
    """A characterized library at one operating corner."""

    name: str
    temperature_k: float
    vdd: float
    cells: dict[str, CharacterizedCell] = field(default_factory=dict)
    coverage: CoverageReport | None = None
    """Per-cell characterization outcome of the build that produced this
    library; ``None`` for hand-assembled libraries."""
    config_digest: str | None = None
    """Content digest of the :class:`CharacterizationConfig` that built
    this library; ``None`` for hand-assembled libraries."""

    def __getitem__(self, name: str) -> CharacterizedCell:
        try:
            return self.cells[name]
        except KeyError:
            raise KeyError(f"library {self.name!r} has no cell {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def add(self, cell: CharacterizedCell) -> None:
        if cell.name in self.cells:
            raise ValueError(f"duplicate cell {cell.name!r}")
        self.cells[cell.name] = cell

    # ------------------------------------------------------------------ #
    def combinational(self) -> list[CharacterizedCell]:
        return [c for c in self.cells.values() if not c.is_sequential]

    def sequential(self) -> list[CharacterizedCell]:
        return [c for c in self.cells.values() if c.is_sequential]

    def by_footprint(self, footprint: str) -> list[CharacterizedCell]:
        """All drive variants of one logical family, weakest first."""
        variants = [
            c for c in self.cells.values() if c.footprint == footprint
        ]
        return sorted(variants, key=lambda c: c.area_um2)

    def match_function(self, truth: int, n_inputs: int) -> list[CharacterizedCell]:
        """Cells whose truth table matches exactly (same input order).

        Used by the technology mapper; variable order must agree with the
        caller's.
        """
        return [
            c
            for c in self.combinational()
            if c.truth == truth and len(c.input_order) == n_inputs
        ]

    def all_delays(self) -> np.ndarray:
        """Every delay value stored in every table of every arc (s).

        This is the population Fig. 5 histograms: "delays across all 200
        cells in the standard cell library ... all cells and conditions".
        """
        chunks = []
        for cell in self.cells.values():
            for arc in cell.arcs:
                chunks.append(arc.cell_rise.values.ravel())
                chunks.append(arc.cell_fall.values.ravel())
        return np.concatenate(chunks) if chunks else np.empty(0)

    def all_leakages(self) -> np.ndarray:
        """Average leakage power per cell (W)."""
        return np.array([c.leakage_avg for c in self.cells.values()])

    def summary(self) -> dict[str, object]:
        """Headline statistics for reports (plus build provenance)."""
        delays = self.all_delays()
        leaks = self.all_leakages()
        return {
            "cells": float(len(self.cells)),
            "median_delay_s": float(np.median(delays)),
            "mean_delay_s": float(np.mean(delays)),
            "p95_delay_s": float(np.percentile(delays, 95)),
            "total_leakage_w": float(np.sum(leaks)),
            "median_leakage_w": float(np.median(leaks)),
            "config_digest": self.config_digest,
        }


# ---------------------------------------------------------------------- #
# The per-cell unit of work (module-level: must pickle for the process
# executor).  Serial and parallel builds run exactly this code, so the
# retry ladder / engine fallback / quarantine semantics cannot drift.
# ---------------------------------------------------------------------- #
@dataclass
class _CellOutcome:
    """What one cell's characterization attempt produced."""

    name: str
    cell: CharacterizedCell | None
    failure: str
    elapsed: float


def _characterize_cell(
    characterizer: CellCharacterizer,
    strict: bool,
    cell: StandardCell | SequentialCell,
) -> _CellOutcome:
    """Characterize one cell, riding the retry ladder on failure.

    In strict mode the first failure raises
    :class:`~repro.errors.CharacterizationError`; otherwise the outcome
    records the irrecoverable failure for quarantine.
    """
    t_cell = time.perf_counter()
    config = characterizer.config
    failure = ""
    with telemetry.span("cells.characterize", cell=cell.name):
        try:
            characterized = characterizer.characterize(cell)
        except Exception as exc:  # noqa: BLE001 - quarantine anything
            if strict:
                raise CharacterizationError(
                    f"cell {cell.name!r}: {type(exc).__name__}: {exc}",
                    cell=cell.name,
                ) from exc
            failure = f"{type(exc).__name__}: {exc}"
            characterized = None
            if config.engine == "spice":
                # Last rung of the ladder: the whole cell falls back to
                # the analytic engine.
                analytic = CellCharacterizer(
                    characterizer.models, replace(config, engine="analytic")
                )
                try:
                    characterized = analytic.characterize(cell)
                except Exception as exc2:  # noqa: BLE001
                    failure = (
                        f"spice: {failure}; analytic: "
                        f"{type(exc2).__name__}: {exc2}"
                    )
                else:
                    characterized.notes.append(
                        f"analytic-engine fallback after {failure}"
                    )
                    failure = ""
                    telemetry.count("cells.engine_fallbacks")
    return _CellOutcome(cell.name, characterized,
                        failure, time.perf_counter() - t_cell)


def build_library(
    models: TechModels,
    config: CharacterizationConfig,
    *,
    catalog: list[StandardCell | SequentialCell] | None = None,
    name: str | None = None,
    strict: bool = False,
    jobs: int | None = None,
    cache: bool | None = None,
) -> CellLibrary:
    """Characterize a catalog into a library at one corner.

    With the default analytic engine the full ~200-cell catalog takes a
    few seconds; the SPICE engine is practical for small catalogs only.

    The build is resilient by default: a cell whose characterization
    fails is retried (for the SPICE engine, with the analytic engine as
    the last rung of the ladder) and quarantined if irrecoverable; the
    returned library carries the per-cell outcome in
    :attr:`CellLibrary.coverage` instead of the whole build aborting.
    ``strict=True`` restores fail-fast semantics, raising
    :class:`~repro.errors.CharacterizationError` on the first bad cell
    (in catalog order, independent of worker scheduling).

    Execution knobs (keyword-only):

    * ``jobs`` -- characterize cells in parallel over the
      :mod:`repro.runtime` executor; ``None`` defers to ``REPRO_JOBS``,
      1 runs serially.  Results are bit-identical to serial.
    * ``cache`` -- memoize the finished library on disk keyed by the
      content digest of (models, config, catalog, strict); ``None``
      enables caching iff ``REPRO_CACHE_DIR`` is set.

    Every parameter after ``models``/``config`` is keyword-only.
    """
    catalog = full_catalog() if catalog is None else catalog
    name = name or f"repro5nm_{config.temperature_k:g}K"

    use_cache = default_enabled() if cache is None else cache
    cache_store = cache_key = None
    if use_cache:
        cache_store = ResultCache(namespace="build_library")
        cache_key = stable_digest({
            "models": models, "config": config, "catalog": catalog,
            "strict": strict,
        })
        cached = cache_store.get(cache_key)
        if cached is not None:
            _LOG.debug("library %s: cache hit (%s)", name, cache_key)
            cached.name = name
            if cached.coverage is not None:
                cached.coverage.library = name
            return cached

    library = CellLibrary(
        name=name, temperature_k=config.temperature_k, vdd=config.vdd,
        config_digest=config.config_digest(),
    )
    report = CoverageReport(library=name, total=len(catalog))
    executor = get_executor(jobs)
    build_span = telemetry.span(
        "cells.build_library", library=name,
        temperature_k=config.temperature_k, engine=config.engine,
        cells=len(catalog), jobs=executor.jobs, backend=executor.backend,
    )
    t_build = time.perf_counter()
    with build_span:
        # One characterizer per build: its compact-model figures (Ieff,
        # Ioff per polarity) are shared by every cell.
        worker = partial(_characterize_cell,
                         CellCharacterizer(models, config), strict)
        try:
            outcomes = executor.map(worker, catalog)
        except ExecutorError as exc:
            if isinstance(exc.__cause__, CharacterizationError):
                raise exc.__cause__ from exc.__cause__.__cause__
            raise
        for outcome in outcomes:
            report.build_seconds[outcome.name] = outcome.elapsed
            telemetry.observe("cells.build_seconds", outcome.elapsed)
            if outcome.cell is None:
                report.quarantined[outcome.name] = outcome.failure
                telemetry.count("cells.quarantined")
                _LOG.warning("library %s: quarantined cell %s (%s)",
                             name, outcome.name, outcome.failure)
                continue
            if outcome.cell.notes:
                report.degraded[outcome.name] = "; ".join(outcome.cell.notes)
                telemetry.count("cells.degraded")
                _LOG.debug("library %s: degraded cell %s (%s)",
                           name, outcome.name, report.degraded[outcome.name])
            else:
                report.clean.append(outcome.name)
            library.add(outcome.cell)
            telemetry.count("cells.characterized")
        report.total_seconds = time.perf_counter() - t_build
        build_span.set(clean=len(report.clean), degraded=len(report.degraded),
                       quarantined=len(report.quarantined),
                       seconds=round(report.total_seconds, 3))
    _LOG.debug("library %s: %d/%d cells in %.2f s", name,
               report.characterized, report.total, report.total_seconds)
    library.coverage = report
    if cache_store is not None and cache_key is not None:
        cache_store.put(cache_key, library)
    return library

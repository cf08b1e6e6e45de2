"""CryoStudy: the paper's full stack as one orchestrated flow (Fig. 1).

Chains every layer exactly as the paper's outline does::

    measurements -> compact-model calibration -> cell libraries (300 K,
    10 K) -> SoC synthesis + placement -> timing signoff (Table 1) ->
    workload simulation (Table 2) -> power signoff (Fig. 6) ->
    qubit-scaling feasibility (Fig. 7)

Each stage is computed lazily and cached, so an experiment that needs
only Table 1 does not pay for the ISS runs.  ``fast=True`` skips the
calibration stage and characterizes against the golden device directly
(useful for quick examples; the default runs the honest flow where the
libraries are built from *calibrated* -- not oracle -- parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.cells import (
    CharacterizationConfig,
    CellLibrary,
    TechModels,
    build_library,
)
from repro.classify import HDCEncoder, get_classifier
from repro.core.feasibility import (
    COOLING_BUDGET_10K,
    ScalingPoint,
    ScalingStudy,
)
from repro.device import (
    Calibrator,
    FinFET,
    MeasurementCampaign,
    default_nfet,
    default_pfet,
    golden_nfet,
    golden_pfet,
)
from repro.power import UncoreModel, activity_from_profile, analyze_power
from repro.quantum import falcon_backend, generate_dataset
from repro.soc import RocketSoC, cycles_per_classification
from repro.soc.programs import pack_hdc_tables
from repro.sta import analyze as sta_analyze
from repro.synth import place, upsize_for_load
from repro.synth.opt import buffer_high_fanout
from repro.synth.soc_builder import SoCConfig, build_soc

__all__ = ["CryoStudy", "StudyConfig", "flow_stage"]

T_ROOM = 300.0
T_CRYO = 10.0


def _cached(obj, stage: str, slot, compute):
    """``obj``'s cached value in ``slot``, computed once; every access
    counts as a hit or a miss of ``stage`` (see :class:`flow_stage`)."""
    cache = obj.__dict__.setdefault("_stage_cache", {})
    events = obj.__dict__.setdefault("_stage_events", {})
    ev = events.setdefault(stage, [0, 0])  # [hits, misses]
    if slot in cache:
        ev[0] += 1
        telemetry.count(f"flow.cache_hit.{stage}")
        return cache[slot]
    ev[1] += 1
    telemetry.count(f"flow.cache_miss.{stage}")
    with telemetry.span(f"flow.{stage}"):
        value = compute()
    cache[slot] = value
    return value


class flow_stage:  # noqa: N801 - decorator, lowercase like cached_property
    """``cached_property`` with per-stage telemetry.

    Semantically identical to :func:`functools.cached_property` (compute
    once per instance, cache forever), but implemented as a *data*
    descriptor so every attribute access runs ``__get__`` -- which is
    what lets it count cache hits as well as misses.  Each stage access
    is recorded two ways:

    * always-on: the owning instance's ``stage_cache_stats()`` ledger;
    * when telemetry is enabled: a ``flow.<stage>`` span around the
      compute plus ``flow.cache_hit/<stage>`` counters, so a traced run
      shows exactly which stages were built, in what order, and which
      were served from cache.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__
        self.name = func.__name__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return _cached(obj, self.name, self.name, lambda: self.func(obj))

    def __set__(self, obj, value):
        # Keep cached_property's injectability (tests pre-seed stages).
        obj.__dict__.setdefault("_stage_cache", {})[self.name] = value


@dataclass(frozen=True, kw_only=True)
class StudyConfig:
    """Knobs of the end-to-end study."""

    seed: int = 2023
    fast: bool = False
    """Skip the calibration stage and characterize against the golden
    device parameters directly (the honest flow calibrates first)."""

    soc: SoCConfig = field(default_factory=SoCConfig)
    shots: int = 40
    """Shots per qubit for workload simulation."""

    cooling_budget_w: float = COOLING_BUDGET_10K

    jobs: int | None = None
    """Worker count for the flow's parallel fan-outs (library builds);
    ``None`` defers to ``REPRO_JOBS`` / serial."""

    def __post_init__(self) -> None:
        from repro.errors import ConfigError

        if self.shots < 1:
            raise ConfigError(f"shots must be >= 1 (got {self.shots!r})",
                              field="shots")
        if self.jobs is not None and self.jobs < 0:
            raise ConfigError(f"jobs must be >= 0 (got {self.jobs!r})",
                              field="jobs")
        if not np.isfinite(self.cooling_budget_w) \
                or self.cooling_budget_w <= 0:
            raise ConfigError(
                f"cooling_budget_w must be finite and > 0 "
                f"(got {self.cooling_budget_w!r})", field="cooling_budget_w")

    # -- provenance / cache identity ---------------------------------- #
    def to_dict(self) -> dict:
        """Plain-data view; round-trips through :meth:`from_dict`."""
        from repro.runtime.digest import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        from repro.runtime.digest import config_from_dict

        return config_from_dict(cls, data, nested={"soc": SoCConfig})

    def config_digest(self) -> str:
        """Stable content hash: the canonical provenance of a run.

        ``jobs`` is excluded: it is an execution knob, and parallel
        runs are bit-identical to serial ones by contract.
        """
        from repro.runtime.digest import stable_digest

        data = self.to_dict()
        data.pop("jobs")
        return stable_digest({"__config__": type(self).__qualname__, **data})


class CryoStudy:
    """Lazily-evaluated full-stack study; see module docstring."""

    def __init__(self, config: StudyConfig | None = None):
        self.config = config or StudyConfig()

    def stage_cache_stats(self) -> dict[str, dict[str, int]]:
        """Per-stage cache accounting: ``{stage: {hits, misses}}``.

        Always on (no telemetry needed); a stage that was never touched
        does not appear.
        """
        events = self.__dict__.get("_stage_events", {})
        return {
            name: {"hits": ev[0], "misses": ev[1]}
            for name, ev in events.items()
        }

    # ------------------------------------------------------------------ #
    # Stage 1-2: measurements and compact-model calibration
    # ------------------------------------------------------------------ #
    @flow_stage
    def iv_datasets(self):
        """Synthetic probe-station campaign (Section III inputs)."""
        return MeasurementCampaign(seed=self.config.seed).run(n_points=61)

    @flow_stage
    def calibration(self):
        """Staged calibration of both polarities (Section III-A)."""
        return {
            "n": Calibrator(self.iv_datasets["n"], default_nfet()).calibrate(),
            "p": Calibrator(self.iv_datasets["p"], default_pfet()).calibrate(),
        }

    @flow_stage
    def models(self) -> TechModels:
        """The device models the libraries characterize against."""
        if self.config.fast:
            return TechModels(golden_nfet(), golden_pfet())
        cal = self.calibration
        return TechModels(cal["n"].params, cal["p"].params)

    # ------------------------------------------------------------------ #
    # Stage 3: standard-cell libraries (Section IV)
    # ------------------------------------------------------------------ #
    @flow_stage
    def libraries(self) -> dict[float, CellLibrary]:
        # The SoC netlist needs the full catalog's drive variants; fast
        # mode saves time by skipping calibration, not the catalog.
        return {
            t: build_library(
                self.models,
                CharacterizationConfig(temperature_k=t),
                jobs=self.config.jobs,
            )
            for t in (T_ROOM, T_CRYO)
        }

    @flow_stage
    def coverage_reports(self):
        """Per-corner characterization coverage (reliability surfacing).

        The resilient library build quarantines irrecoverable cells
        instead of aborting the flow; downstream stages (and operators)
        read the damage here.  ``flow_health()`` aggregates the same
        information into one verdict.
        """
        return {t: lib.coverage for t, lib in self.libraries.items()}

    def flow_health(self) -> dict:
        """One-line reliability verdict over every built corner."""
        reports = {
            t: r for t, r in self.coverage_reports.items() if r is not None
        }
        return {
            "complete": all(r.complete for r in reports.values()),
            "coverage": {t: r.coverage for t, r in reports.items()},
            "quarantined": {
                t: sorted(r.quarantined) for t, r in reports.items()
                if r.quarantined
            },
        }

    # ------------------------------------------------------------------ #
    # Stage 4: SoC synthesis, placement, timing (Section V-A, Table 1)
    # ------------------------------------------------------------------ #
    @flow_stage
    def soc_model(self):
        """Synthesized + optimized + placed SoC (built at 300 K, like the
        paper's baseline flow)."""
        lib = self.libraries[T_ROOM]
        model = build_soc(lib, self.config.soc)
        buffer_high_fanout(model.netlist, lib)
        upsize_for_load(model.netlist, lib)
        return model

    @flow_stage
    def placement(self):
        return place(self.soc_model.netlist, self.libraries[T_ROOM])

    def macro_delay_scale(self, temperature_k: float) -> float:
        """SRAM macro timing scale: transistors inside macros track the
        same effective-current shift as the logic."""
        n = FinFET(self.models.nfet)
        p = FinFET(self.models.pfet)
        base = n.effective_current(T_ROOM) + p.effective_current(T_ROOM)
        now = n.effective_current(temperature_k) + p.effective_current(
            temperature_k
        )
        return base / now

    @flow_stage
    def timing(self):
        """Table 1: STA at both corners on the same physical design."""
        return {
            t: sta_analyze(
                self.soc_model.netlist,
                self.libraries[t],
                self.placement,
                macro_delay_scale=self.macro_delay_scale(t),
            )
            for t in (T_ROOM, T_CRYO)
        }

    def frequency(self, temperature_k: float) -> float:
        """Achievable clock at a corner (Hz)."""
        return self.timing[temperature_k].fmax_hz

    # ------------------------------------------------------------------ #
    # Stage 5: workloads on the ISS (Section V-B, Table 2)
    # ------------------------------------------------------------------ #
    def classification_setup(self, n_qubits: int):
        """Backend + calibrated classifiers for a given system size.

        Built once per size and shared by every caller on this study
        (``stage_cache_stats()["classification_setup"]`` counts the
        reuse); the dataset arrays are read-only so that no caller can
        change another's input.
        """
        return _cached(self, "classification_setup",
                       ("classification_setup", n_qubits),
                       lambda: self._classification_setup(n_qubits))

    def _classification_setup(self, n_qubits: int):
        backend = falcon_backend(n_qubits=n_qubits, seed=self.config.seed)
        dataset = generate_dataset(
            backend, n_shots=self.config.shots,
            n_calibration_shots=256, seed=self.config.seed + 1,
        )
        for array in (dataset.calibration_centers, dataset.states,
                      dataset.points):
            array.flags.writeable = False
        encoder = HDCEncoder.random(seed=self.config.seed)
        knn = get_classifier("knn").from_centers(dataset.calibration_centers)
        hdc = get_classifier("hdc").from_centers(
            dataset.calibration_centers, encoder=encoder)
        return backend, dataset, knn, hdc

    def knn_cycles(self, n_qubits: int, with_sqrt: bool = False):
        """Run the kNN kernel; returns (cycles/measurement, result)."""
        _, dataset, knn, _ = self.classification_setup(n_qubits)
        _, _, pts = dataset.interleaved()
        result = RocketSoC().run_knn(
            dataset.calibration_centers, pts, n_qubits, with_sqrt=with_sqrt
        )
        return cycles_per_classification(result, len(pts)), result

    def hdc_cycles(
        self,
        n_qubits: int,
        hardware_popcount: bool = False,
        precomputed_xor: bool = True,
    ):
        """Run the HDC kernel; returns (cycles/measurement, result)."""
        _, dataset, _, hdc = self.classification_setup(n_qubits)
        _, _, pts = dataset.interleaved()
        if precomputed_xor:
            tables = pack_hdc_tables(
                hdc.encoder.y_items,
                xc0=hdc.xc_tables[:, 0],
                xc1=hdc.xc_tables[:, 1],
            )
        else:
            tables = pack_hdc_tables(
                hdc.encoder.y_items,
                x_items=hdc.encoder.x_items,
                c0=hdc.prototypes[:, 0],
                c1=hdc.prototypes[:, 1],
            )
        result = RocketSoC().run_hdc(
            tables, pts, n_qubits,
            hardware_popcount=hardware_popcount,
            precomputed_xor=precomputed_xor,
        )
        return cycles_per_classification(result, len(pts)), result

    @flow_stage
    def table2(self) -> dict[str, dict[int, float]]:
        """Average cycles per classification (paper Table 2)."""
        out: dict[str, dict[int, float]] = {"knn": {}, "hdc": {}}
        for nq in (20, 400):
            out["knn"][nq], _ = self.knn_cycles(nq)
            out["hdc"][nq], _ = self.hdc_cycles(nq)
        return out

    # ------------------------------------------------------------------ #
    # Stage 6: power signoff (Fig. 6)
    # ------------------------------------------------------------------ #
    def power_report(self, temperature_k: float, workload: str = "knn"):
        """Average SoC power for a workload at one corner."""
        if workload == "knn":
            _, result = self.knn_cycles(100)
        elif workload == "hdc":
            _, result = self.hdc_cycles(100)
        elif workload == "dhrystone":
            result = RocketSoC().run_dhrystone(iterations=100)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        activity = activity_from_profile(workload, result.stats.profile())
        return analyze_power(
            self.soc_model.netlist,
            self.libraries[temperature_k],
            activity,
            self.frequency(temperature_k),
            self.models,
            self.placement,
            uncore=UncoreModel(),
        )

    @flow_stage
    def fig6(self):
        """Fig. 6: kNN power at both corners + feasibility verdicts."""
        reports = {t: self.power_report(t, "knn") for t in (T_ROOM, T_CRYO)}
        return {
            "reports": reports,
            "feasible": {
                t: r.fits_budget(self.config.cooling_budget_w)
                for t, r in reports.items()
            },
        }

    # ------------------------------------------------------------------ #
    # Artifact export (the Fig.-4 outputs as files)
    # ------------------------------------------------------------------ #
    def export_artifacts(self, directory) -> dict[str, str]:
        """Write the flow's file artifacts: modelcards, Liberty libraries
        and a signoff summary.  Returns {artifact name: path}.

        These are the tangible outputs of the paper's Fig. 4 ("outputs are
        highlighted in red (300 K) and blue (10 K)"): one calibrated
        modelcard per polarity and one Liberty library per corner.
        """
        from pathlib import Path

        from repro.cells import write_liberty
        from repro.device import modelcard
        from repro.experiments import fig6_power, table1_timing

        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        paths: dict[str, str] = {}

        for pol, params in (("n", self.models.nfet), ("p", self.models.pfet)):
            path = out / f"{pol}fet_calibrated.mdl"
            modelcard.save(params, path, name=f"{pol}fet_cal")
            paths[f"modelcard_{pol}"] = str(path)

        for t, library in self.libraries.items():
            path = out / f"repro5nm_{t:g}K.lib"
            write_liberty(library, path)
            paths[f"liberty_{t:g}K"] = str(path)

        from repro.synth import write_verilog

        netlist_path = out / "rocket_soc.v"
        write_verilog(self.soc_model.netlist, netlist_path,
                      module_name="rocket_soc")
        paths["netlist"] = str(netlist_path)

        summary = out / "signoff_summary.txt"
        summary.write_text(
            table1_timing.report(table1_timing.run(self))
            + "\n\n"
            + fig6_power.report(fig6_power.run(self))
            + "\n"
        )
        paths["summary"] = str(summary)
        return paths

    # ------------------------------------------------------------------ #
    # Stage 7: scaling study (Fig. 7, Section VII)
    # ------------------------------------------------------------------ #
    def scaling_study(
        self,
        method: str = "knn",
        qubit_counts: tuple[int, ...] = (20, 100, 200, 400, 800, 1200),
        temperature_k: float = T_CRYO,
    ) -> ScalingStudy:
        """Classification time vs. qubit count against the 110 us budget."""
        frequency = self.frequency(temperature_k)
        budget = falcon_backend(n_qubits=1).time_budget()
        study = ScalingStudy(method=method)
        for nq in qubit_counts:
            if method == "knn":
                cpm, _ = self.knn_cycles(nq)
            elif method == "hdc":
                cpm, _ = self.hdc_cycles(nq)
            else:
                raise ValueError(f"unknown method {method!r}")
            study.points.append(
                ScalingPoint(
                    n_qubits=nq,
                    cycles_per_measurement=cpm,
                    frequency_hz=frequency,
                    time_budget_s=budget,
                )
            )
        return study

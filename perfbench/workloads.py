"""The benchmark's workloads: set-up, one unit of work, output checks.

Each workload builds its inputs from the seed in :meth:`setup`, runs
one *unit* of work in :meth:`unit` (timing each of its operations) and
judges the unit's outputs in :meth:`check`.  Outputs that do not depend
on the seed are pinned for every seed; seed-dependent outputs are pinned
for :data:`PIN_SEED` only, and any other seed checks invariants.

Everything here calls the program's public functions; nothing reaches
into ``src/``.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

import numpy as np

PIN_SEED = 2023
"""The seed whose seed-dependent outputs are pinned (``StudyConfig``'s
default seed)."""

RTOL = 1e-9
"""Relative tolerance for pinned floats (the repo's golden tolerance)."""


# ---------------------------------------------------------------------- #
# Shared plumbing
# ---------------------------------------------------------------------- #
def cpu_seconds() -> float:
    """CPU seconds of this process and of its children that have ended,
    so that work moved into a subprocess still counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Unit:
    """One unit of work: its times, per-operation times, outputs."""

    t_start: float
    wall_s: float
    seconds: float
    """The unit's time on its workload's clock (see ``Workload.clock``)."""
    ops: list[tuple[str, float]]
    outputs: dict
    keep: dict = field(default_factory=dict)
    """Objects the checks need that are not pinned outputs."""


class Check:
    """Operation accounting: every judged operation passes or fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)

    def add(self, attempted: int, failed: int, what: str) -> None:
        """Count ``attempted`` operations of which ``failed`` failed."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 50:
            self.problems.append(what)


def same(expected, actual) -> bool:
    """Pinned-value equality: floats to :data:`RTOL`, the rest exact."""
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and expected.keys() == actual.keys()
                and all(same(expected[k], actual[k]) for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, (list, tuple))
                and len(expected) == len(actual)
                and all(same(e, a) for e, a in zip(expected, actual)))
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual
    if isinstance(expected, float) or isinstance(actual, float):
        return bool(np.isclose(actual, expected, rtol=RTOL, atol=0.0))
    return expected == actual


class Timer:
    """Collects ``(operation, seconds)`` pairs for one unit."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.ops: list[tuple[str, float]] = []
        self.t0 = time.perf_counter()
        self.c0 = clock()

    def __call__(self, name: str, fn):
        c0 = self.clock()
        value = fn()
        self.ops.append((name, self.clock() - c0))
        return value

    def unit(self, outputs: dict, keep: dict | None = None) -> Unit:
        return Unit(self.t0, time.perf_counter() - self.t0,
                    self.clock() - self.c0, self.ops, outputs, keep or {})


class Workload:
    """Base: a named workload with a one-line reason to exist."""

    name = ""
    why = ""
    modules: tuple[str, ...] = ()
    """Modules a fresh interpreter imports during set-up."""
    max_units: int | None = None
    clock = staticmethod(cpu_seconds)
    """Serial work is timed in CPU seconds: its wall time on an idle
    host, without the time the shared host's other tenants take."""
    layers: tuple[str, ...] = ()
    """Per-layer metrics this workload exercises: a traced run counts
    each one that reads 0 as a failed operation (a wrapper that no
    longer catches its layer's calls)."""

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def setup(self, seed: int) -> dict:
        return {"seed": seed}

    def teardown(self, state: dict) -> None:
        """Release what :meth:`setup` started (default: nothing)."""

    def unit(self, state: dict) -> Unit:
        raise NotImplementedError

    def latencies(self, units: list[Unit]) -> list[float]:
        """Seconds of each request the latency percentiles cover.  A
        batch workload's request is one unit of work: its stages differ
        in kind and size, so percentiles over them would pick one short
        stage, not describe a distribution."""
        return [u.seconds for u in units]

    def pinned(self, unit: Unit) -> tuple[dict, dict]:
        """``(seed_independent, seed_dependent)`` outputs to pin."""
        return unit.outputs, {}

    def check(self, state: dict, units: list[Unit], pins: dict | None
              ) -> Check:
        raise NotImplementedError

    def trace_hooks(self, tracer, state: dict) -> None:
        """Workload-specific wrappers (default: none)."""

    def layer_metrics(self, tracer, state: dict, units: list[Unit]
                      ) -> dict[str, float]:
        """Per-layer values only this workload can measure."""
        return {}

    # -- pin helpers --------------------------------------------------- #
    def pin_views(self, state: dict, pins: dict | None
                  ) -> tuple[dict | None, dict | None]:
        """The pinned (any-seed, this-seed) views that apply, if any."""
        if pins is None or self.smoke:
            return None, None
        this_seed = (pins["seed_dependent"]
                     if state["seed"] == pins["seed"] else None)
        return pins["seed_independent"], this_seed


def _pin_ok(view: dict | None, key: str, value) -> bool:
    """True when ``view`` is absent or its ``key`` matches ``value``."""
    return view is None or same(view[key], value)


# ---------------------------------------------------------------------- #
# paper_flow: the cold signoff path of ``repro all`` (fast config)
# ---------------------------------------------------------------------- #
class PaperFlow(Workload):
    name = "paper_flow"
    why = ("cold Fig. 1 chain (calibrate, characterize 300 K/10 K, STA, "
           "ISS, power); device, analytic cells and sta work only here")
    modules = ("repro.core.flow",)
    max_units = 1  # a second pass in the same process would not be cold
    layers = ("device.calibrate_s", "device.measure_s",
              "cells.build_library_s", "cells.cells_per_s",
              "cells.characterize_s", "synth.build_s", "synth.place_s",
              "sta.analyze_s", "sta.gates_per_s", "power.analyze_s",
              "quantum.dataset_s", "soc.run_s.knn", "soc.run_s.hdc",
              "soc.load_s", "soc.sim_kips", "soc.instructions",
              "soc.cycles", "soc.cpi", "soc.dcache_miss_rate")

    FIT_BOUND = 0.12
    """Worst per-corner calibration RMS error (decades), the bound the
    calibration tests hold the seed to."""

    def unit(self, state: dict) -> Unit:
        from repro.core.flow import CryoStudy, StudyConfig
        from repro.device import (
            Calibrator,
            MeasurementCampaign,
            default_nfet,
            default_pfet,
        )

        seed = state["seed"]
        timed = Timer(self.clock)
        # The optimizer's work depends strongly on the measurement noise
        # (one seed takes 5x longer on the p-FET), so every seed
        # calibrates the campaign ``repro all`` calibrates; the seed
        # varies the flow's readout datasets.
        datasets = timed("measure", lambda: MeasurementCampaign(
            seed=PIN_SEED).run(n_points=61))
        stages = ("subthreshold",) if self.smoke else None
        cal = {
            pol: timed(f"calibrate_{pol}", lambda pol=pol, dev=dev: Calibrator(
                datasets[pol], dev()).calibrate(stages))
            for pol, dev in (("n", default_nfet), ("p", default_pfet))
        }
        study = CryoStudy(StudyConfig(fast=True, shots=15, seed=seed))
        timed("libraries", lambda: study.libraries)
        timed("synth_place", lambda: study.placement)
        timed("timing", lambda: study.timing)
        timed("table2", lambda: study.table2)
        timed("fig6", lambda: study.fig6)

        corners = {f"{t:g}": t for t in study.timing}
        outputs = {
            "fit_error": {pol: dict(res.validation)
                          for pol, res in cal.items()},
            "library_cells": {k: len(study.libraries[t])
                              for k, t in corners.items()},
            "gates": len(study.soc_model.netlist.gates),
            "fmax_hz": {k: float(study.timing[t].fmax_hz)
                        for k, t in corners.items()},
            "table2": {kind: {str(nq): float(v) for nq, v in row.items()}
                       for kind, row in study.table2.items()},
            "fig6_power_w": {k: float(study.fig6["reports"][t].total)
                             for k, t in corners.items()},
            "fig6_feasible": {k: bool(study.fig6["feasible"][t])
                              for k, t in corners.items()},
            "complete": bool(study.flow_health()["complete"]),
        }
        return timed.unit(outputs, {"study": study, "datasets": datasets})

    def pinned(self, unit: Unit) -> tuple[dict, dict]:
        out = unit.outputs
        fixed = {k: out[k] for k in ("fit_error", "library_cells", "gates",
                                     "fmax_hz")}
        seeded = {k: out[k] for k in ("table2", "fig6_power_w",
                                      "fig6_feasible")}
        return fixed, seeded

    def check(self, state, units, pins) -> Check:
        from repro.device import MeasurementCampaign

        fixed, seeded = self.pin_views(state, pins)
        c = Check()
        for unit in units:
            out, study = unit.outputs, unit.keep["study"]
            again = MeasurementCampaign(seed=PIN_SEED).run(n_points=61)
            c.op(_datasets_equal(unit.keep["datasets"], again),
                 "measure: a second campaign with the same seed differs")
            for pol, errs in out["fit_error"].items():
                worst = max(errs.values())
                c.op((self.smoke or worst < self.FIT_BOUND)
                     and (fixed is None
                          or same(fixed["fit_error"][pol], errs)),
                     f"calibrate_{pol}: worst fit error {worst:.4f} decades "
                     f"(bound {self.FIT_BOUND}) or pin mismatch")
            c.op(out["complete"] and _pin_ok(fixed, "library_cells",
                                             out["library_cells"]),
                 "libraries: incomplete coverage or cell count changed")
            c.op(_pin_ok(fixed, "gates", out["gates"]),
                 f"synth_place: {out['gates']} gates, pinned "
                 f"{fixed and fixed['gates']}")
            c.op(_pin_ok(fixed, "fmax_hz", out["fmax_hz"])
                 and all(np.isfinite(v) and v > 0
                         for v in out["fmax_hz"].values()),
                 f"timing: fmax {out['fmax_hz']} differs from the pin")
            t2 = out["table2"]
            grows = all(row["400"] > row["20"] for row in t2.values())
            replay = {"knn": study.knn_cycles(20)[0],
                      "hdc": study.hdc_cycles(20)[0]}
            c.op(grows and _pin_ok(seeded, "table2", t2)
                 and all(replay[k] == t2[k]["20"] for k in replay),
                 f"table2: {t2} (cycles must grow with qubits, replay "
                 f"{replay} must repeat, pins must hold)")
            c.op(_pin_ok(seeded, "fig6_power_w", out["fig6_power_w"])
                 and _pin_ok(seeded, "fig6_feasible", out["fig6_feasible"])
                 and all(v > 0 for v in out["fig6_power_w"].values()),
                 f"fig6: power {out['fig6_power_w']} feasible "
                 f"{out['fig6_feasible']}")
        return c


def _datasets_equal(a: dict, b: dict) -> bool:
    for pol in a:
        ca, cb = a[pol].curves, b[pol].curves
        if len(ca) != len(cb) or not all(
                np.array_equal(x.ids, y.ids) for x, y in zip(ca, cb)):
            return False
    return a.keys() == b.keys()


# ---------------------------------------------------------------------- #
# iss_scaling: the Fig. 7 sweep on the instruction-set simulator
# ---------------------------------------------------------------------- #
class ISSScaling(Workload):
    name = "iss_scaling"
    why = ("Fig. 7 kNN/HDC sweep to 1200 qubits plus Dhrystone: the ISS "
           "does all the work and the data outgrows L1D")
    modules = ("repro.core.flow",)
    layers = ("soc.run_s.knn", "soc.run_s.hdc", "soc.run_s.dhrystone",
              "soc.load_s", "soc.sim_kips", "soc.instructions",
              "soc.cycles", "soc.cpi", "soc.dcache_miss_rate")

    QUBITS = (20, 100, 400, 1200)
    SHOTS = 8
    """Shots per qubit; run time scales with it, the cache footprint
    with the qubit count."""
    DHRYSTONE = 100

    def setup(self, seed: int) -> dict:
        from repro.core.flow import CryoStudy, StudyConfig
        from repro.soc.programs import pack_hdc_tables

        qubits = (20, 400) if self.smoke else self.QUBITS
        study = CryoStudy(StudyConfig(fast=True, shots=self.SHOTS,
                                      seed=seed))
        cases = {}
        for nq in qubits:
            _, dataset, knn, hdc = study.classification_setup(nq)
            _, _, pts = dataset.interleaved()
            tables = pack_hdc_tables(hdc.encoder.y_items,
                                     xc0=hdc.xc_tables[:, 0],
                                     xc1=hdc.xc_tables[:, 1])
            cases[nq] = {"centers": dataset.calibration_centers,
                         "pts": pts, "tables": tables,
                         "knn": knn, "hdc": hdc}
        return {"seed": seed, "cases": cases,
                "dhrystone": 10 if self.smoke else self.DHRYSTONE}

    @staticmethod
    def _run(kind: str, nq: int, case: dict):
        from repro.soc import RocketSoC

        if kind == "knn":
            return RocketSoC().run_knn(case["centers"], case["pts"], nq)
        return RocketSoC().run_hdc(case["tables"], case["pts"], nq)

    def unit(self, state: dict) -> Unit:
        from repro.soc import RocketSoC

        timed = Timer(self.clock)
        outputs, labels = {}, {}
        for nq, case in state["cases"].items():
            for kind in ("knn", "hdc"):
                res = timed(f"{kind}@{nq}", lambda k=kind, n=nq, c=case:
                            self._run(k, n, c))
                outputs[f"{kind}@{nq}"] = {
                    "instructions": res.stats.instructions,
                    "cycles": res.stats.cycles}
                labels[f"{kind}@{nq}"] = res.labels
        res = timed("dhrystone", lambda: RocketSoC().run_dhrystone(
            iterations=state["dhrystone"]))
        outputs["dhrystone"] = {"instructions": res.stats.instructions,
                                "cycles": res.stats.cycles}
        return timed.unit(outputs, {"labels": labels})

    def pinned(self, unit: Unit) -> tuple[dict, dict]:
        out = dict(unit.outputs)
        return {"dhrystone": out.pop("dhrystone")}, out

    def check(self, state, units, pins) -> Check:
        fixed, seeded = self.pin_views(state, pins)
        cases = state["cases"]
        expected = {f"{kind}@{nq}": case[kind].predict(case["pts"])
                    for nq, case in cases.items() for kind in ("knn", "hdc")}
        small, large = min(cases), max(cases)
        c = Check()
        for unit in units:
            out = unit.outputs
            for key, want in expected.items():
                kind, nq = key.split("@")
                per = {q: out[f"{kind}@{q}"]["cycles"] / len(cases[q]["pts"])
                       for q in (small, large)}
                c.op(np.array_equal(unit.keep["labels"][key], want)
                     and _pin_ok(seeded, key, out[key])
                     and (int(nq) != large or per[large] > per[small]),
                     f"{key}: labels differ from predict, counts "
                     f"{out[key]} differ from the pin, or cycles per "
                     f"classification do not grow with qubits ({per})")
            c.op(_pin_ok(fixed, "dhrystone", out["dhrystone"]),
                 f"dhrystone: {out['dhrystone']} differs from the pin")
        # Determinism: the smallest point, run again, repeats exactly.
        first = units[0]
        for kind in ("knn", "hdc"):
            key = f"{kind}@{small}"
            res = self._run(kind, small, cases[small])
            c.op(res.stats.instructions == first.outputs[key]["instructions"]
                 and res.stats.cycles == first.outputs[key]["cycles"]
                 and np.array_equal(res.labels, first.keep["labels"][key]),
                 f"{key}: a second in-process run differs")
        return c


# ---------------------------------------------------------------------- #
# spice_char: batched-grid SPICE timing arcs (transient_grid, G > 1)
# ---------------------------------------------------------------------- #
class SpiceChar(Workload):
    name = "spice_char"
    why = ("SPICE NLDM arcs as lockstep transient_grid batches (many "
           "replicas per call); spice and the device model do the work")
    modules = ("repro.cells", "repro.spice")
    layers = ("cells.characterize_s", "spice.transient_grid_s",
              "spice.transient_grid_calls", "spice.replicas_per_call",
              "spice.newton_per_step", "spice.jacobian_reuse_frac")

    # INV_X1 at both temperatures; NAND2_X1 (twice the cost of both) is
    # left out to keep a full comparison inside its time budget.
    CORNERS = (("INV_X1", 10.0), ("INV_X1", 300.0))
    SLEWS = (8e-12, 32e-12, 128e-12)

    def _config(self, temperature_k: float):
        from repro.cells import CharacterizationConfig
        from repro.cells.characterize import DEFAULT_LOAD_INDEX

        if self.smoke:
            return CharacterizationConfig(
                engine="spice", temperature_k=temperature_k,
                slew_index=(32e-12,), load_index=DEFAULT_LOAD_INDEX[:2])
        return CharacterizationConfig(engine="spice",
                                      temperature_k=temperature_k,
                                      slew_index=self.SLEWS)

    def setup(self, seed: int) -> dict:
        from repro.cells import cell_by_name

        corners = self.CORNERS[:1] if self.smoke else self.CORNERS
        return {"seed": seed,
                "corners": [(cell_by_name(name), t, self._config(t))
                            for name, t in corners]}

    def unit(self, state: dict) -> Unit:
        from repro.cells import CellCharacterizer, TechModels
        from repro.device import golden_nfet, golden_pfet

        timed = Timer(self.clock)
        outputs, notes = {}, {}
        for cell, t, cfg in state["corners"]:
            key = f"{cell.name}@{t:g}K"
            characterizer = CellCharacterizer(
                TechModels(golden_nfet(), golden_pfet()), cfg)
            done = timed(key, lambda ch=characterizer, c=cell:
                         ch.characterize(c))
            outputs[key] = {
                arc.related_pin: {
                    table: getattr(arc, table).values.tolist()
                    for table in ("cell_rise", "cell_fall",
                                  "rise_transition", "fall_transition")}
                for arc in done.arcs}
            notes[key] = list(done.notes)
        return timed.unit(outputs, {"notes": notes})

    @staticmethod
    def fallback_points_of(unit: Unit, key: str) -> int:
        """Table points the analytic estimate filled (one note each)."""
        return sum("analytic fallback" in note
                   for note in unit.keep["notes"][key])

    def check(self, state, units, pins) -> Check:
        fixed, _ = self.pin_views(state, pins)
        c = Check()
        for unit in units:
            for key, arcs in unit.outputs.items():
                points = bad = 0
                for pin, tables in arcs.items():
                    want = fixed[key][pin] if fixed else None
                    for edge in ("rise", "fall"):
                        delay = np.asarray(tables[f"cell_{edge}"])
                        grows = np.diff(delay, axis=1) >= 0
                        points += delay.size
                        bad += int((~grows).sum())
                        for name in (f"cell_{edge}", f"{edge}_transition"):
                            if want is not None and not same(want[name],
                                                             tables[name]):
                                bad += delay.size
                                c.problems.append(
                                    f"{key} {pin} {name} differs from the pin")
                # A point the analytic estimate filled is a failed SPICE
                # solve even when its value looks sane.
                fallbacks = self.fallback_points_of(unit, key)
                c.add(points, min(points, bad + fallbacks),
                      f"{key}: {bad} points break delay-grows-with-load or "
                      f"the pin, {fallbacks} filled by the analytic fallback")
        return c

    def layer_metrics(self, tracer, state, units) -> dict[str, float]:
        return {"cells.fallback_points":
                sum(self.fallback_points_of(u, key) for u in units
                    for key in u.outputs) / len(units)}


# ---------------------------------------------------------------------- #
# spice_snm: 6T hold-SNM sweeps (hundreds of single-circuit DC solves)
# ---------------------------------------------------------------------- #
class SpiceSNM(Workload):
    name = "spice_snm"
    why = ("6T hold-SNM nominal + mismatch Monte Carlo at 300 K and 10 K: "
           "hundreds of single-circuit (G=1) DC solves")
    modules = ("repro.device.sram_cell", "repro.spice")
    layers = ("spice.dc_s", "spice.dc_solves", "spice.dc_newton_per_solve")

    TEMPERATURES = (300.0, 10.0)
    MC_CELLS = 8
    POINTS = 25

    def unit(self, state: dict) -> Unit:
        from repro.cells import TechModels
        from repro.device import golden_nfet, golden_pfet
        from repro.device.sram_cell import SRAMCellAnalysis

        cells, points = (2, 11) if self.smoke else (self.MC_CELLS,
                                                    self.POINTS)
        timed = Timer(self.clock)
        analysis = SRAMCellAnalysis.bitcell(
            TechModels(golden_nfet(), golden_pfet()))
        outputs = {}
        for t in self.TEMPERATURES:
            nominal = timed(f"nominal@{t:g}K", lambda t=t: analysis.nominal_snm(
                t, n_points=points))
            mc = timed(f"mc@{t:g}K", lambda t=t: analysis.monte_carlo(
                t, n_cells=cells, seed=state["seed"], n_points=points))
            outputs[f"{t:g}"] = {"nominal": float(nominal),
                                 "mc": [float(v) for v in mc]}
        return timed.unit(outputs, {"analysis": analysis, "points": points})

    def pinned(self, unit: Unit) -> tuple[dict, dict]:
        out = unit.outputs
        return ({k: v["nominal"] for k, v in out.items()},
                {k: v["mc"] for k, v in out.items()})

    def check(self, state, units, pins) -> Check:
        fixed, seeded = self.pin_views(state, pins)
        c = Check()
        vdd = units[0].keep["analysis"].vdd
        for unit in units:
            for corner, out in unit.outputs.items():
                nominal = out["nominal"]
                c.op(0.0 < nominal < vdd / 2
                     and _pin_ok(fixed, corner, nominal),
                     f"nominal SNM @{corner} K = {nominal:.6g} V")
                for k, v in enumerate(out["mc"]):
                    c.op(0.0 < v < vdd / 2 and (
                        seeded is None or same(seeded[corner][k], v)),
                        f"MC SNM cell {k} @{corner} K = {v:.6g} V")
        first = units[0]
        again = first.keep["analysis"].nominal_snm(
            10.0, n_points=first.keep["points"])
        c.op(again == first.outputs["10"]["nominal"],
             "nominal SNM @10 K: a second in-process solve differs")
        return c


# ---------------------------------------------------------------------- #
# serve_mix: closed-loop pipelined knn/hdc traffic over one connection
# ---------------------------------------------------------------------- #
class ServeMix(Workload):
    name = "serve_mix"
    why = ("closed loop, one client, pipelined bursts of 4 knn/hdc "
           "requests x 1024 shots: serve, host classify and observe.live")
    modules = ("repro.serve",)
    layers = ("classify.predict_us_per_shot", "serve.shots_per_batch",
              "serve.queue_wait_ms_p50", "serve.wire_frac")

    clock = staticmethod(time.perf_counter)  # latency is wall-clock
    N_QUBITS = 27
    SHOTS = 1024
    BURST = 4
    PAYLOADS = 4
    BURSTS_PER_UNIT = 16
    WARMUP_BURSTS = 4

    def setup(self, seed: int) -> dict:
        from repro.quantum import falcon_backend, generate_dataset
        from repro.serve import (
            ModelRegistry,
            ServeClient,
            ServeConfig,
            ServerThread,
        )

        registry = ModelRegistry.calibrated(
            n_qubits=self.N_QUBITS, n_calibration_shots=128, seed=seed)
        # Each payload starts at qubit 0: ceil(SHOTS / N_QUBITS) shots.
        per = -(-self.SHOTS // self.N_QUBITS) * self.N_QUBITS
        dataset = generate_dataset(
            falcon_backend(n_qubits=self.N_QUBITS, seed=seed),
            n_shots=self.PAYLOADS * per // self.N_QUBITS, seed=seed + 1)
        _, _, pts = dataset.interleaved()
        payloads = [np.ascontiguousarray(pts[k * per:k * per + self.SHOTS])
                    for k in range(self.PAYLOADS)]
        expected = {(name, k): registry.get(name).predict(p)
                    for name in ("knn", "hdc")
                    for k, p in enumerate(payloads)}
        server = ServerThread(registry, ServeConfig(
            batch_window_ms=1.0, max_queue=256)).start()
        client = ServeClient(server.host, server.port)
        state = {"seed": seed, "registry": registry, "payloads": payloads,
                 "expected": expected, "server": server, "client": client,
                 "sent": 0, "bursts": 4 if self.smoke
                 else self.BURSTS_PER_UNIT}
        for _ in range(self.WARMUP_BURSTS):
            self._burst(state)
        return state

    def teardown(self, state: dict) -> None:
        state["client"].close()
        # Let the server see the client's EOF before it is stopped, so
        # the connection ends instead of being cancelled mid-close.
        time.sleep(0.1)
        state["server"].stop()

    def _burst(self, state: dict) -> tuple[float, int, int, list[str]]:
        """One pipelined burst: ``(latency_s, ok, failed, problems)``."""
        from repro.errors import ServeError
        from repro.serve import ServeClient

        # Models alternate within a burst and payloads rotate across
        # bursts, so every (model, payload) pair is served.
        b = state["sent"]
        state["sent"] += 1
        keys = [("knn" if i % 2 == 0 else "hdc", (b + i) % self.PAYLOADS)
                for i in range(self.BURST)]
        requests = [{"model": name, "iq": state["payloads"][k]}
                    for name, k in keys]
        t0 = time.perf_counter()
        try:
            docs = state["client"].pipeline(requests)
        except ServeError as exc:
            latency = time.perf_counter() - t0
            state["client"].close()
            server = state["server"]
            state["client"] = ServeClient(server.host, server.port)
            return latency, 0, len(keys), [f"burst lost: {exc}"]
        latency = time.perf_counter() - t0
        ok, problems = 0, []
        for (name, k), doc in zip(keys, docs):
            if doc.get("ok") and np.array_equal(
                    np.asarray(doc["labels"]), state["expected"][(name, k)]):
                ok += 1
            else:
                problems.append(f"{name} payload {k}: code "
                                f"{doc.get('code')} or labels differ")
        return latency, ok, len(keys) - ok, problems

    def unit(self, state: dict) -> Unit:
        timed = Timer(self.clock)
        ok = failed = 0
        problems: list[str] = []
        for b in range(state["bursts"]):
            latency, n_ok, n_failed, why = self._burst(state)
            timed.ops.append((f"burst{b}", latency))
            ok, failed = ok + n_ok, failed + n_failed
            problems += why
        return timed.unit({"ok": ok, "failed": failed},
                          {"problems": problems})

    def latencies(self, units: list[Unit]) -> list[float]:
        """One pipelined burst, write to last response."""
        return [latency for u in units for _, latency in u.ops]

    def pinned(self, unit: Unit) -> tuple[dict, dict]:
        return {}, {}

    def check(self, state, units, pins) -> Check:
        c = Check()
        for unit in units:
            out = unit.outputs
            c.add(out["ok"] + out["failed"], out["failed"],
                  "; ".join(unit.keep["problems"][:5]))
        return c

    # -- tracing -------------------------------------------------------- #
    def trace_hooks(self, tracer, state: dict) -> None:
        import threading
        from collections import deque

        from repro.serve.batcher import MicroBatcher

        fifo: dict[str, deque] = {}
        lock = threading.Lock()
        local = threading.local()
        state["queue_wait_ms"] = waits = []

        def enqueue(args, kwargs):
            # submit(self, name, model, iq, qubit, deadline_s, trace=None)
            with lock:
                fifo.setdefault(args[1], deque()).append(
                    (time.perf_counter(), len(args[3])))

        def predict_hook(name):
            def before(args, kwargs):
                # The fused batch holds the oldest pending requests of
                # this model, in arrival order, totalling len(iq) shots.
                now, shots, n = time.perf_counter(), len(args[0]), 0
                with lock:
                    queue = fifo.get(name, deque())
                    while shots > 0 and queue:
                        t_enq, size = queue.popleft()
                        waits.append((now - t_enq) * 1e3)
                        shots -= size
                        n += 1
                local.requests = n

            def after(args, kwargs, result, seconds):
                tracer.add("serve.request_predict_s",
                           seconds * getattr(local, "requests", 0))
                return result
            return before, after

        tracer.wrap(MicroBatcher, "submit", "serve.submit_s",
                    before=enqueue)
        for name in state["registry"].names():
            before, after = predict_hook(name)
            tracer.wrap(state["registry"].get(name), "predict",
                        "classify.predict_s", before=before, after=after)

    def layer_metrics(self, tracer, state, units) -> dict[str, float]:
        lat = sum(self.latencies(units))
        # Direct predict on the same shots, fused the way a burst is.
        fused = {name: np.concatenate(state["payloads"][:self.BURST // 2])
                 for name in ("knn", "hdc")}
        models = {name: state["registry"].get(name) for name in fused}
        samples = []
        for _ in range(5 if self.smoke else 20):
            t0 = time.perf_counter()
            for name, iq in fused.items():
                models[name].predict(iq)
            samples.append(time.perf_counter() - t0)
        shots = sum(len(iq) for iq in fused.values())
        served = state["client"].stats()["counters"]["serve.shots"]
        batches = state["server"].server.session_record().metrics[
            "serve.batches"]
        return {
            "classify.predict_us_per_shot":
                float(np.median(samples)) / shots * 1e6,
            "serve.queue_wait_ms_p50":
                float(np.median(state["queue_wait_ms"]))
                if state["queue_wait_ms"] else 0.0,
            "serve.wire_frac":
                1.0 - tracer.get("serve.request_predict_s")
                / (lat * self.BURST) if lat else 0.0,
            "serve.shots_per_batch": served / batches if batches else 0.0,
        }


WORKLOADS = {w.name: w for w in (PaperFlow, ISSScaling, SpiceChar,
                                 SpiceSNM, ServeMix)}

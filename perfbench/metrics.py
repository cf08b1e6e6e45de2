"""Metric definitions and the layer wrappers of a traced run.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (the
self-test holds them equal).  Every run prints every metric of its kind;
a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from tracer import Tracer

END_TO_END = {"setup_s": "s", "run_s": "s", "latency_p50_ms": "ms",
              "latency_p99_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "device.calibrate_s": "s",
    "device.measure_s": "s",
    "cells.build_library_s": "s",
    "cells.cells_per_s": "1/s",
    "cells.characterize_s": "s",
    "cells.fallback_points": "count",
    "cells.evicted_points": "count",
    "synth.build_s": "s",
    "synth.place_s": "s",
    "sta.analyze_s": "s",
    "sta.gates_per_s": "1/s",
    "power.analyze_s": "s",
    "quantum.dataset_s": "s",
    "soc.run_s.knn": "s",
    "soc.run_s.hdc": "s",
    "soc.run_s.dhrystone": "s",
    "soc.load_s": "s",
    "soc.sim_kips": "kinstr/s",
    "soc.instructions": "count",
    "soc.cycles": "count",
    "soc.cpi": "cycles/instr",
    "soc.dcache_miss_rate": "frac",
    "spice.transient_grid_s": "s",
    "spice.transient_grid_calls": "count",
    "spice.replicas_per_call": "count",
    "spice.newton_per_step": "count",
    "spice.jacobian_reuse_frac": "frac",
    "spice.dc_s": "s",
    "spice.dc_solves": "count",
    "spice.dc_newton_per_solve": "count",
    "spice.gmin_steps": "count",
    "classify.predict_us_per_shot": "us/shot",
    "serve.shots_per_batch": "count",
    "serve.queue_wait_ms_p50": "ms",
    "serve.wire_frac": "frac",
    "core.unattributed_frac": "frac",
    "trace_overhead_frac": "frac",
}

def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times: list[float], units, latencies: list[float]
               ) -> dict[str, float]:
    latencies = np.array(latencies) * 1e3
    return {
        "setup_s": float(np.median(setup_times)),
        "run_s": float(np.median([u.seconds for u in units])),
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p99_ms": float(np.percentile(latencies, 99)),
        "peak_rss_mb": peak_rss_mb(),
    }


# ---------------------------------------------------------------------- #
# Wrappers: each public entry point, patched where its caller finds it
# ---------------------------------------------------------------------- #
def install(tracer: Tracer) -> None:
    import repro.core.flow as flow
    import repro.spice as spice
    from repro.cells import CellCharacterizer
    from repro.device import Calibrator, MeasurementCampaign
    from repro.soc import RocketSoC
    from repro.soc.cpu import CPU

    def count(key, fn):
        def after(args, kwargs, result, seconds):
            tracer.add(key, fn(args, result))
            return result
        return after

    tracer.wrap(Calibrator, "calibrate", "device.calibrate_s")
    tracer.wrap(MeasurementCampaign, "run", "device.measure_s")
    tracer.wrap(flow, "build_library", "cells.build_library_s",
                after=count("cells.built", lambda a, lib: len(lib)))
    tracer.wrap(CellCharacterizer, "characterize", "cells.characterize_s")
    for name in ("build_soc", "buffer_high_fanout", "upsize_for_load"):
        tracer.wrap(flow, name, "synth.build_s")
    tracer.wrap(flow, "place", "synth.place_s")
    tracer.wrap(flow, "sta_analyze", "sta.analyze_s",
                after=count("sta.gates", lambda a, r: len(a[0].gates)))
    tracer.wrap(flow, "analyze_power", "power.analyze_s")
    for name in ("falcon_backend", "generate_dataset"):
        tracer.wrap(flow, name, "quantum.dataset_s")

    for kind in ("knn", "hdc", "dhrystone"):
        tracer.wrap(RocketSoC, f"run_{kind}", f"soc.run_s.{kind}")

    def timed_prepare(args, kwargs, result, seconds):
        prepare, read_output, regions = result

        def prepare_timed():
            t0 = time.perf_counter()
            cpu = prepare()
            tracer.add("soc.load_s", time.perf_counter() - t0)
            return cpu
        return prepare_timed, read_output, regions

    for kind in ("knn", "hdc"):
        tracer.wrap(RocketSoC, f"setup_{kind}", f"soc.setup_{kind}_s",
                    after=timed_prepare)

    def cpu_counts(args, kwargs, stats, seconds):
        l1d = args[0].caches.l1d.stats
        tracer.add("soc.instructions", stats.instructions)
        tracer.add("soc.cycles", stats.cycles)
        tracer.add("soc.l1d_accesses", l1d.accesses)
        tracer.add("soc.l1d_misses", l1d.misses)
        return stats

    tracer.wrap(CPU, "run", "soc.cpu_run_s", after=cpu_counts)

    def grid_counts(args, kwargs, results, seconds):
        # Replicas of one batch share one SolverStats: count it once.
        tracer.add("spice.replicas", len(args[0]))
        tracer.add("cells.evicted_points", sum(r is None for r in results))
        stats = next((r.stats for r in results if r is not None), None)
        if stats is not None:
            tracer.add("spice.grid_newton", stats.newton_iterations)
            tracer.add("spice.grid_steps", stats.timesteps)
            tracer.add("spice.grid_reuses", stats.jacobian_reuses)
        return results

    tracer.wrap(spice, "transient_grid", "spice.transient_grid_s",
                after=grid_counts)

    def dc_counts(args, kwargs, op, seconds):
        tracer.add("spice.dc_newton", op.stats.newton_iterations)
        tracer.add("spice.gmin_steps", op.stats.gmin_steps)
        return op

    tracer.wrap(spice, "dc_operating_point", "spice.dc_s", after=dc_counts)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, units, extra: dict[str, float]
              ) -> dict[str, float]:
    """Every per-layer metric; sums are per unit of work."""
    g = tracer.get
    n = len(units)
    wall = sum(u.wall_s for u in units)
    windows = [(u.t_start, u.t_start + u.wall_s) for u in units]
    attributed = tracer.attributed_seconds(windows)
    values = {
        "device.calibrate_s": g("device.calibrate_s") / n,
        "device.measure_s": g("device.measure_s") / n,
        "cells.build_library_s": g("cells.build_library_s") / n,
        "cells.cells_per_s": _ratio(g("cells.built"),
                                    g("cells.build_library_s")),
        "cells.characterize_s": g("cells.characterize_s") / n,
        "cells.fallback_points": 0.0,
        "cells.evicted_points": g("cells.evicted_points") / n,
        "synth.build_s": g("synth.build_s") / n,
        "synth.place_s": g("synth.place_s") / n,
        "sta.analyze_s": g("sta.analyze_s") / n,
        "sta.gates_per_s": _ratio(g("sta.gates"), g("sta.analyze_s")),
        "power.analyze_s": g("power.analyze_s") / n,
        "quantum.dataset_s": g("quantum.dataset_s") / n,
        "soc.run_s.knn": g("soc.run_s.knn") / n,
        "soc.run_s.hdc": g("soc.run_s.hdc") / n,
        "soc.run_s.dhrystone": g("soc.run_s.dhrystone") / n,
        "soc.load_s": g("soc.load_s") / n,
        "soc.sim_kips": _ratio(g("soc.instructions"),
                               g("soc.cpu_run_s")) / 1e3,
        "soc.instructions": g("soc.instructions") / n,
        "soc.cycles": g("soc.cycles") / n,
        "soc.cpi": _ratio(g("soc.cycles"), g("soc.instructions")),
        "soc.dcache_miss_rate": _ratio(g("soc.l1d_misses"),
                                       g("soc.l1d_accesses")),
        "spice.transient_grid_s": g("spice.transient_grid_s") / n,
        "spice.transient_grid_calls": g("spice.transient_grid_s#calls") / n,
        "spice.replicas_per_call": _ratio(
            g("spice.replicas"), g("spice.transient_grid_s#calls")),
        "spice.newton_per_step": _ratio(g("spice.grid_newton"),
                                        g("spice.grid_steps")),
        "spice.jacobian_reuse_frac": _ratio(g("spice.grid_reuses"),
                                            g("spice.grid_newton")),
        "spice.dc_s": g("spice.dc_s") / n,
        "spice.dc_solves": g("spice.dc_s#calls") / n,
        "spice.dc_newton_per_solve": _ratio(g("spice.dc_newton"),
                                            g("spice.dc_s#calls")),
        "spice.gmin_steps": g("spice.gmin_steps") / n,
        "classify.predict_us_per_shot": 0.0,
        "serve.shots_per_batch": 0.0,
        "serve.queue_wait_ms_p50": 0.0,
        "serve.wire_frac": 0.0,
        "core.unattributed_frac": 1.0 - _ratio(attributed, wall),
        "trace_overhead_frac": _ratio(tracer.bookkeeping_s,
                                      wall - tracer.bookkeeping_s),
    }
    values.update(extra)
    if values.keys() != PER_LAYER.keys():
        raise KeyError(f"per-layer metrics out of step with PER_LAYER: "
                       f"{sorted(values.keys() ^ PER_LAYER.keys())}")
    return values

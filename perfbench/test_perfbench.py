"""Self-tests of the benchmark (smoke-size inputs).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They check that every metric ``BENCHMARK.json`` names is emitted, that
a traced run sees every layer its workload exercises, that corrupted
outputs are counted as failed operations, that the tracer
puts back every attribute it patched, and that the benchmark refuses to
run without the program's source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Unit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT,
           extra: tuple[str, ...] = ("--smoke",)):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_metric_tables_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} \
        == {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == metrics.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    # A traced run also needs its workload's layers to read above 0: a
    # wrapper its layer's callers no longer go through reads 0.
    need = WORKLOADS[workload].layers if trace else want
    assert all(result["metrics"][name]["value"] > 0 for name in need)


# Per-layer metrics that read 0 on a healthy run: failure counts, and
# shares of time that an exhaustive or free tracer would make 0.
MAY_READ_0 = {"cells.fallback_points", "cells.evicted_points",
              "spice.gmin_steps", "core.unattributed_frac",
              "trace_overhead_frac"}


def test_every_layer_metric_is_exercised_by_some_workload():
    claimed = {name for w in WORKLOADS.values() for name in w.layers}
    assert claimed <= metrics.PER_LAYER.keys()
    assert claimed | MAY_READ_0 == metrics.PER_LAYER.keys()


def test_a_layer_that_reads_0_is_a_failed_operation(monkeypatch, capsys):
    with mock.patch.dict(os.environ):
        import run
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    snm = WORKLOADS["spice_snm"]
    # spice_snm makes no transient_grid call, as a workload would whose
    # calls bypass the wrapper.
    monkeypatch.setattr(snm, "layers",
                        snm.layers + ("spice.transient_grid_calls",))
    result = run.run(run.parse_args(
        ["--workload", "spice_snm", "--seed", "5", "--seconds", "0",
         "--trace", "1", "--smoke"]))
    assert result["correct"] is False and result["failed"] == 1
    assert "spice.transient_grid_calls reads 0" in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("iss_scaling", 0, cwd=tmp_path, extra=())
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_patched_attribute():
    import repro.core.flow as flow
    import repro.spice as spice
    from repro.soc import RocketSoC

    before = (flow.sta_analyze, spice.transient_grid,
              RocketSoC.__dict__["run_knn"])
    tracer = Tracer()
    metrics.install(tracer)
    assert flow.sta_analyze is not before[0]
    tracer.restore()
    assert (flow.sta_analyze, spice.transient_grid,
            RocketSoC.__dict__["run_knn"]) == before


# ---------------------------------------------------------------------- #
# Corrupted outputs are failed operations
# ---------------------------------------------------------------------- #
def _run_smoke(name: str):
    workload = WORKLOADS[name](smoke=True)
    state = workload.setup(5)
    return workload, state, workload.unit(state)


def test_corrupted_iss_labels_fail():
    workload, state, unit = _run_smoke("iss_scaling")
    assert workload.check(state, [unit], None).failed == 0
    unit.keep["labels"]["hdc@20"] = 1 - unit.keep["labels"]["hdc@20"]
    verdict = workload.check(state, [unit], None)
    # Both the predict comparison and the in-process replay disagree.
    assert verdict.failed == 2
    assert all("hdc@20" in p for p in verdict.problems)


def test_corrupted_and_fallback_table_points_fail():
    workload, state, unit = _run_smoke("spice_char")
    assert workload.check(state, [unit], None).failed == 0
    key = next(iter(unit.outputs))
    table = unit.outputs[key]["A"]["cell_rise"]
    table[0][1] = table[0][0] / 2  # delay no longer grows with load
    assert workload.check(state, [unit], None).failed == 1
    unit.keep["notes"][key].append("arc A: analytic fallback (test)")
    assert workload.check(state, [unit], None).failed == 2


def test_corrupted_snm_fails():
    workload, state, unit = _run_smoke("spice_snm")
    assert workload.check(state, [unit], None).failed == 0
    unit.outputs["10"]["mc"][0] = -unit.outputs["10"]["mc"][0]
    assert workload.check(state, [unit], None).failed == 1


def test_wrong_served_labels_fail():
    workload = WORKLOADS["serve_mix"](smoke=True)
    state = workload.setup(5)
    try:
        key = ("hdc", 1)
        state["expected"][key] = 1 - state["expected"][key]
        verdict = workload.check(state, [workload.unit(state)], None)
    finally:
        workload.teardown(state)
    # Payloads rotate across bursts: hdc sees payload 1 every other burst.
    assert verdict.failed == state["bursts"] // 2
    assert verdict.attempted == state["bursts"] * workload.BURST


def test_pins_catch_a_changed_output():
    workload, state, unit = _run_smoke("spice_snm")
    workload.smoke = False  # judge the smoke outputs against pins
    fixed, seeded = workload.pinned(unit)
    pins = {"seed": 5, "seed_independent": fixed, "seed_dependent": seeded}
    assert workload.check(state, [unit], pins).failed == 0
    moved = Unit(unit.t_start, unit.wall_s, unit.seconds, unit.ops,
                 json.loads(json.dumps(unit.outputs)), unit.keep)
    moved.outputs["300"]["nominal"] *= 1 + 1e-6
    assert workload.check(state, [moved], pins).failed == 1
    assert np.isclose(moved.outputs["300"]["nominal"],
                      fixed["300"], rtol=1e-5)

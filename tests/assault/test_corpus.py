"""The scenario corpus: the repro stack under hostile conditions.

Where :mod:`repro.reliability` injects faults into the *simulated*
hardware, these scenarios inject them into the *reproduction
infrastructure itself* -- the result cache, the run ledger, the
executor's worker pool, the SPICE solver, the serving layer -- and
check how it degrades.  Each scenario is one test and its tier is a
pytest marker, in escalating hostility:

``smoke``
    The stack's vital signs: cache round-trip, ledger round-trip,
    executor fan-out, a small DC solve, fidelity grading.  Everything
    must complete cleanly -- a smoke failure means the repo is broken
    before any adversary shows up.
``edge``
    Malformed *inputs*: broken netlists (dangling nodes, NaN
    parameters, zero-width devices, duplicate elements), out-of-range
    configs, combinational cycles, oversized transient requests.  Each
    must be rejected with a typed :class:`~repro.errors.ReproError`
    subclass naming the offender -- never a raw traceback, never
    silent acceptance.
``storm``
    Chaos against the *infrastructure*: truncated / bit-flipped /
    stale-version-poisoned cache entries, ledger corruption, worker
    death mid-``map``, solver budget exhaustion and forced
    non-convergence, an SEU campaign running concurrently with library
    characterization, request floods and stalled clients against the
    classification service.  The contract is graceful degradation:
    misses instead of garbage, typed errors instead of tracebacks,
    recovery after the chaos lifts.
``endurance``
    The storm scenarios looped with seeded random interleaving:
    repeated cache churn under corruption, ledger growth under
    periodic damage, solver sweeps under random budgets.  Catches state
    that only corrupts cumulatively.

A plain ``pytest`` run covers all four tiers; ``python -m pytest
tests/assault -m "smoke or edge"`` runs a selection.  Each scenario
states its contract with the helpers in ``grading.py`` (``with
expect_error(...)`` or ``assert_clean(check, obs)``), and the ``ctx``
fixture in ``conftest.py`` gives it a throwaway cache/ledger sandbox, a
seeded :class:`~tests.assault.chaos.ChaosMonkey` and a seeded
``ctx.rng``.  Adding a scenario::

    @pytest.mark.storm
    def test_cache_eviction_race(ctx):
        '''What the stack must survive.'''
        ...
        assert_clean(_my_check, observation)
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import (
    ConfigError,
    NetlistError,
    SolverBudgetError,
    SolverError,
    ValidationError,
)
from tests.assault.grading import assert_clean, expect_error

TIERS = ("smoke", "edge", "storm", "endurance")


# ====================================================================== #
# Shared builders (small on purpose: scenarios run on every push)
# ====================================================================== #
def _square(x):
    """Module-level so it pickles across the process boundary."""
    return x * x


def _rc_divider():
    """A linear divider: mid node must land at exactly 0.5 V."""
    from repro.spice import Circuit
    from repro.spice.sources import DC

    c = Circuit("divider")
    c.add_vsource("v1", "a", "0", DC(1.0))
    c.add_resistor("r1", "a", "mid", 1e3)
    c.add_resistor("r2", "mid", "0", 1e3)
    return c


def _inverter():
    """A transistor-level inverter: the smallest nonlinear solve."""
    from repro.device import FinFET, golden_nfet, golden_pfet
    from repro.spice import Circuit
    from repro.spice.sources import DC

    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", "0", DC(0.7))
    c.add_vsource("vin", "in", "0", DC(0.35))
    c.add_finfet("mp", "out", "in", "vdd", FinFET(golden_pfet(nfin=2)))
    c.add_finfet("mn", "out", "in", "0", FinFET(golden_nfet(nfin=2)))
    c.add_capacitor("cl", "out", "0", 1e-15)
    return c


def _record(i: int):
    from repro.provenance import RunRecord

    return RunRecord(experiment=f"assault_probe_{i}", kind="experiment",
                     metrics={"value": float(i)})


# ====================================================================== #
# smoke -- vital signs, everything must work cleanly
# ====================================================================== #
@pytest.mark.smoke
def test_cache_roundtrip(ctx):
    """put/get/membership on a fresh cache."""
    from repro.runtime import stable_digest

    keys = [stable_digest({"i": i}) for i in range(3)]
    for i, key in enumerate(keys):
        ctx.cache.put(key, {"payload": i})
    hits = sum(ctx.cache.get(k, None) == {"payload": i}
               for i, k in enumerate(keys))
    assert_clean(
        lambda obs: obs["hits"] == 3 and obs["member"] is True,
        {"hits": hits, "member": keys[0] in ctx.cache})


@pytest.mark.smoke
def test_ledger_roundtrip(ctx):
    """append records, read them back in order."""
    for i in range(3):
        ctx.ledger.append(_record(i))
    records = ctx.ledger.records()
    assert_clean(
        lambda obs: obs["read"] == 3 and obs["latest"] == "assault_probe_2",
        {"read": len(records), "latest": records[-1].experiment})


@pytest.mark.smoke
def test_executor_fanout(ctx):
    """process-pool map matches the serial reference."""
    from repro.runtime import get_executor

    items = list(range(16))
    assert_clean(lambda obs: obs["parallel"] == obs["serial"], {
        "parallel": get_executor(2).map(_square, items),
        "serial": get_executor(1).map(_square, items),
    })


@pytest.mark.smoke
def test_solver_dc_divider(ctx):
    """a trivial DC solve lands on the analytic answer."""
    from repro.spice import dc_operating_point

    assert_clean(
        lambda obs: abs(obs["mid"] - 0.5) < 1e-6,
        {"mid": dc_operating_point(_rc_divider())["mid"]})


@pytest.mark.smoke
def test_fidelity_grading(ctx):
    """the PASS/WARN/FAIL machinery grades a clean run."""
    from repro.provenance import FidelitySpec, metric

    spec = FidelitySpec(metrics=(
        metric("probe", 1.0, lambda r: r["probe"], rel=0.05),
    ))
    assert_clean(
        lambda obs: obs["verdict"] == "PASS",
        {"verdict": spec.evaluate("probe", {"probe": 1.01}).verdict})


# ====================================================================== #
# edge -- malformed inputs must be rejected with typed errors
# ====================================================================== #
@pytest.mark.edge
def test_netlist_negative_resistance(ctx):
    """R <= 0 rejected at element construction."""
    from repro.spice import Circuit

    with expect_error(NetlistError):
        Circuit().add_resistor("r1", "a", "0", -50.0)


@pytest.mark.edge
def test_netlist_nan_parameter(ctx):
    """NaN capacitance rejected at element construction."""
    from repro.spice import Circuit

    with expect_error(NetlistError):
        Circuit().add_capacitor("c1", "a", "0", float("nan"))


@pytest.mark.edge
def test_netlist_duplicate_element(ctx):
    """reusing an element name is rejected."""
    from repro.spice import Circuit

    with expect_error(NetlistError):
        c = Circuit()
        c.add_resistor("r1", "a", "0", 1e3)
        c.add_resistor("r1", "b", "0", 1e3)


@pytest.mark.edge
def test_netlist_dangling_node(ctx):
    """a resistor into nowhere fails validation, not silently solving to
    0 V through gmin."""
    from repro.spice import Circuit, dc_operating_point
    from repro.spice.sources import DC

    with expect_error(NetlistError):
        c = Circuit()
        c.add_vsource("v1", "a", "0", DC(1.0))
        c.add_resistor("r1", "a", "nowhere", 1e3)
        dc_operating_point(c)


@pytest.mark.edge
def test_netlist_zero_width_device(ctx):
    """a 0-fin FinFET is rejected before assembly (device params or
    circuit validation, both typed)."""
    from repro.device import FinFET, golden_nfet
    from repro.spice import Circuit, dc_operating_point
    from repro.spice.sources import DC

    with expect_error(ValidationError):
        broken = dataclasses.replace(golden_nfet(), nfin=0)
        c = Circuit()
        c.add_vsource("vdd", "vdd", "0", DC(0.7))
        c.add_finfet("mn", "vdd", "vdd", "0", FinFET(broken))
        dc_operating_point(c)


@pytest.mark.edge
def test_netlist_unknown_probe_node(ctx):
    """recording an unknown node is rejected up front."""
    from repro.spice import transient

    with expect_error(NetlistError):
        transient(_rc_divider(), t_stop=1e-10, dt=1e-12, record=["ghost"])


@pytest.mark.edge
def test_config_unknown_engine(ctx):
    """an unknown characterization engine is rejected."""
    from repro.cells import CharacterizationConfig

    with expect_error(ConfigError):
        CharacterizationConfig(engine="quantum_annealer")


@pytest.mark.edge
def test_config_nan_temperature(ctx):
    """NaN corner temperature is rejected."""
    from repro.cells import CharacterizationConfig

    with expect_error(ConfigError):
        CharacterizationConfig(temperature_k=float("nan"))


@pytest.mark.edge
def test_config_zero_shots(ctx):
    """a zero-shot study config is rejected."""
    from repro.core import StudyConfig

    with expect_error(ConfigError):
        StudyConfig(shots=0)


@pytest.mark.edge
def test_config_bad_soc_geometry(ctx):
    """non-power-of-two cache geometry is rejected."""
    from repro.synth.soc_builder import SoCConfig

    with expect_error(ConfigError):
        SoCConfig(line_bytes=48)


@pytest.mark.edge
def test_synth_combinational_cycle(ctx):
    """a cyclic gate netlist is rejected by the topological traversal."""
    from repro.synth.netlist import GateNetlist

    with expect_error(NetlistError):
        n = GateNetlist("loop")
        n.add_gate("INV_X1", {"A": "n2"}, output="n1", name="g1")
        n.add_gate("INV_X1", {"A": "n1"}, output="n2", name="g2")
        n.topological_gates(library={})


@pytest.mark.edge
def test_transient_oversized(ctx):
    """a t_stop/dt pair implying billions of steps is rejected instead
    of grinding or OOMing."""
    from repro.spice import transient

    with expect_error(ConfigError):
        transient(_rc_divider(), t_stop=1.0, dt=1e-12)


@pytest.mark.edge
def test_transient_nonpositive_step(ctx):
    """dt <= 0 is rejected with a typed error."""
    from repro.spice import transient

    with expect_error(ConfigError):
        transient(_rc_divider(), t_stop=1e-9, dt=0.0)


# ====================================================================== #
# storm -- chaos against the infrastructure
# ====================================================================== #
def _check_cache_chaos(obs):
    if not obs["miss_under_chaos"]:
        return False
    if not obs["not_member_under_chaos"]:
        return False
    if not obs["recovered"]:
        return "degraded entry never recovered after chaos lifted"
    return True


@pytest.mark.storm
def test_cache_truncation(ctx):
    """a truncated entry reads as a miss, never garbage."""
    from repro.runtime import stable_digest

    key = stable_digest({"cell": "INV_X1"})
    ctx.cache.put(key, {"delay_ps": 12.5})
    with ctx.chaos.truncated_cache_entry(ctx.cache, key):
        miss = ctx.cache.get(key, None) is None
        member = key in ctx.cache
    ctx.cache.put(key, {"delay_ps": 12.5})
    assert_clean(_check_cache_chaos, {
        "miss_under_chaos": miss,
        "not_member_under_chaos": not member,
        "recovered": ctx.cache.get(key, None) == {"delay_ps": 12.5},
    })


@pytest.mark.storm
def test_cache_bitflip(ctx):
    """a bit-flipped entry fails its CRC and misses."""
    from repro.runtime import stable_digest

    key = stable_digest({"cell": "NAND2_X1"})
    ctx.cache.put(key, list(range(64)))
    with ctx.chaos.bitflipped_cache_entry(ctx.cache, key):
        miss = ctx.cache.get(key, None) is None
        member = key in ctx.cache
    ctx.cache.put(key, list(range(64)))
    assert_clean(_check_cache_chaos, {
        "miss_under_chaos": miss,
        "not_member_under_chaos": not member,
        "recovered": ctx.cache.get(key, None) == list(range(64)),
    })


@pytest.mark.storm
def test_cache_stale_version_poison(ctx):
    """an entry written under an older cache version is invisible, never
    served."""
    from repro.runtime import stable_digest

    key = stable_digest({"corner": "10K"})
    with ctx.chaos.stale_version_entry(ctx.cache, key, {"POISON": True}):
        poison_invisible = (ctx.cache.get(key, None) is None
                            and key not in ctx.cache)
        ctx.cache.put(key, {"fresh": 1})
        served = ctx.cache.get(key, None)
    assert_clean(
        lambda obs: obs["poison_invisible"] and obs["real_value_served"],
        {
            "poison_invisible": poison_invisible,
            "real_value_served": served == {"fresh": 1},
        })


def _check_ledger_chaos(obs):
    if obs["raised"]:
        return False
    if obs["read_under_chaos"] < obs["expected_valid"]:
        return ("readable records dropped below the valid count: "
                f"{obs['read_under_chaos']} < {obs['expected_valid']}")
    return obs["recovered"] == obs["appended"]


def _ledger_chaos(ctx, mode: str, expected_valid: int, appended: int = 3):
    for i in range(appended):
        ctx.ledger.append(_record(i))
    raised = False
    read = 0
    with ctx.chaos.corrupted_ledger(ctx.ledger, mode=mode):
        try:
            read = len(ctx.ledger.records())
        except Exception:  # noqa: BLE001 - the contract is "never raises"
            raised = True
    return {
        "raised": raised,
        "read_under_chaos": read,
        "expected_valid": expected_valid,
        "recovered": len(ctx.ledger.records()),
        "appended": appended,
    }


@pytest.mark.storm
def test_ledger_garbage_line(ctx):
    """an appended garbage line is skipped, valid records survive."""
    assert_clean(
        _check_ledger_chaos,
        _ledger_chaos(ctx, "garbage", expected_valid=3))


@pytest.mark.storm
def test_ledger_midfile_corruption(ctx):
    """a record mangled mid-file loses only itself."""
    assert_clean(
        _check_ledger_chaos,
        _ledger_chaos(ctx, "midline", expected_valid=2))


@pytest.mark.storm
def test_ledger_binary_junk(ctx):
    """raw binary appended to the ledger is skipped."""
    assert_clean(
        _check_ledger_chaos,
        _ledger_chaos(ctx, "binary", expected_valid=3))


@pytest.mark.storm
def test_executor_worker_death(ctx):
    """a worker hard-killed mid-map is recovered by the in-parent chunk
    re-run; results stay bit-identical."""
    from repro.runtime import get_executor

    items = list(range(8))
    assassin = ctx.chaos.worker_assassin(_square, kill_items={3, 5})
    results = get_executor(2).map(assassin, items)
    assert_clean(
        lambda obs: obs["results"] == obs["expected"],
        {"results": results, "expected": [_square(i) for i in items]})


@pytest.mark.storm
def test_solver_budget_exhaustion(ctx):
    """a 1-iteration budget surfaces SolverBudgetError, not a hang or a
    raw traceback."""
    from repro.spice import dc_operating_point
    from repro.spice.solver import SolverBudget

    with expect_error(SolverBudgetError):
        dc_operating_point(_inverter(), budget=SolverBudget(max_iterations=1))


@pytest.mark.storm
def test_solver_nonconvergence(ctx):
    """a hopeless solve walks the whole escalation ladder and raises a
    typed ConvergenceError."""
    from repro.spice import dc_operating_point

    with expect_error(SolverError):
        with ctx.chaos.hostile_solver(max_iterations=1):
            dc_operating_point(_inverter())


@pytest.mark.storm
def test_grid_eviction_storm(ctx):
    """hostile solver during batched-grid characterization: evictions
    degrade to the per-point retry ladder -- notes recorded, zero empty
    tables."""
    import numpy as np

    from repro.cells import (
        CellCharacterizer,
        CharacterizationConfig,
        TechModels,
        cell_by_name,
    )
    from repro.device import golden_nfet, golden_pfet

    cfg = CharacterizationConfig(
        engine="spice",
        slew_index=(8e-12, 32e-12),
        load_index=(1e-15, 4e-15),
    )
    ch = CellCharacterizer(TechModels(golden_nfet(), golden_pfet()), cfg)
    cell = cell_by_name("NAND2_X1")
    notes: list[str] = []
    # A 1-iteration Newton cap makes every solve hopeless: the batch
    # evicts all replicas, the per-point ladder fails both rungs, and
    # every table point must land on its analytic estimate -- with the
    # degradation recorded in notes and no table left empty.
    with ctx.chaos.hostile_solver(max_iterations=1):
        arc = ch._characterize_arc_spice(cell, "A", notes)
    tables = [arc.cell_rise, arc.cell_fall,
              arc.rise_transition, arc.fall_transition]
    assert_clean(
        lambda obs: obs["notes_recorded"] and obs["no_empty_tables"],
        {
            "notes_recorded": bool(notes),
            "no_empty_tables": all(
                np.isfinite(t.values).all() and (t.values > 0).all()
                for t in tables
            ),
        })


@pytest.mark.storm
def test_seu_storm_during_characterization(ctx):
    """an SEU campaign hammers the ISS while a library characterizes;
    both finish intact."""
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from repro.cells import (
        CharacterizationConfig,
        TechModels,
        build_library,
    )
    from repro.cells.catalog import full_catalog
    from repro.device import golden_nfet, golden_pfet
    from repro.reliability import CampaignConfig, qec_workload, run_campaign

    def storm():
        rng = np.random.default_rng(ctx.seed)
        bits = rng.integers(0, 2, 45)
        return run_campaign(
            qec_workload(bits, distance=3),
            CampaignConfig(n_injections=10, seed=ctx.seed),
        )

    catalog = [c for c in full_catalog()
               if c.name in ("INV_X1", "NAND2_X1")]
    models = TechModels(golden_nfet(), golden_pfet())
    with ThreadPoolExecutor(max_workers=1) as pool:
        campaign_future = pool.submit(storm)
        library = build_library(
            models, CharacterizationConfig(temperature_k=300.0),
            catalog=catalog, name="under_fire",
        )
        campaign = campaign_future.result(timeout=300)
    assert_clean(
        lambda obs: obs["coverage_complete"] and obs["outcomes_accounted"],
        {
            "coverage_complete": library.coverage is None
            or not library.coverage.quarantined,
            "outcomes_accounted": sum(campaign.counts().values()) == 10,
        })


# ====================================================================== #
# endurance -- the storm, looped, with seeded interleaving
# ====================================================================== #
@pytest.mark.endurance
def test_cache_churn(ctx):
    """20 rounds of put/corrupt/get: never garbage, membership always
    consistent with readability."""
    from repro.runtime import stable_digest

    violations = []
    for round_no in range(20):
        key = stable_digest({"round": round_no})
        value = {"round": round_no, "blob": list(range(32))}
        ctx.cache.put(key, value)
        attack = ctx.rng.choice(["truncate", "bitflip", "none"])
        if attack == "truncate":
            chaos = ctx.chaos.truncated_cache_entry(ctx.cache, key)
        elif attack == "bitflip":
            chaos = ctx.chaos.bitflipped_cache_entry(ctx.cache, key)
        else:
            chaos = None
        if chaos is None:
            got = ctx.cache.get(key, None)
            if got != value:
                violations.append(f"round {round_no}: clean entry lost")
            continue
        with chaos:
            got = ctx.cache.get(key, None)
            if got is not None and got != value:
                violations.append(f"round {round_no}: served garbage")
            if (key in ctx.cache) != (ctx.cache.get(key, None) is not None):
                violations.append(
                    f"round {round_no}: membership != readability")
    assert_clean(
        lambda obs: obs["violations"] == [],
        {"violations": violations})


@pytest.mark.endurance
def test_ledger_growth_under_corruption(ctx):
    """append/corrupt cycles: reads never raise, the valid-record count
    never regresses."""
    violations = []
    appended = 0
    for round_no in range(12):
        ctx.ledger.append(_record(round_no))
        appended += 1
        if round_no % 3 == 2:
            mode = ctx.rng.choice(["garbage", "binary", "midline"])
            with ctx.chaos.corrupted_ledger(ctx.ledger, mode=mode):
                try:
                    ctx.ledger.records()
                except Exception as exc:  # noqa: BLE001
                    violations.append(
                        f"round {round_no}: read raised "
                        f"{type(exc).__name__} under {mode}")
        clean = len(ctx.ledger.records())
        if clean != appended:
            violations.append(
                f"round {round_no}: {clean} records after chaos lifted, "
                f"expected {appended}")
    assert_clean(
        lambda obs: obs["violations"] == [],
        {"violations": violations})


@pytest.mark.endurance
def test_solver_budget_sweep(ctx):
    """repeated solves under random budgets: every outcome is a solution
    or a typed SolverError."""
    from repro.errors import SolverError
    from repro.spice import dc_operating_point
    from repro.spice.solver import SolverBudget

    violations = []
    solved = 0
    for round_no in range(8):
        cap = ctx.rng.choice([1, 2, 5, None])
        budget = (None if cap is None
                  else SolverBudget(max_iterations=cap))
        try:
            op = dc_operating_point(_inverter(), budget=budget)
        except SolverError:
            continue
        except Exception as exc:  # noqa: BLE001
            violations.append(
                f"round {round_no} (cap={cap}): untyped "
                f"{type(exc).__name__}: {exc}")
            continue
        solved += 1
        if not 0.0 <= op["out"] <= 0.7:
            violations.append(
                f"round {round_no}: out={op['out']} outside the rails")
    assert_clean(
        lambda obs: obs["violations"] == [] and obs["solved"] > 0,
        {"violations": violations, "solved": solved})


# ---------------------------------------------------------------------- #
# Serving-layer storms (repro.serve): the classification service under
# request floods and hostile clients.
# ---------------------------------------------------------------------- #
def _storm_registry(slow_s: float = 0.0):
    """A tiny warm registry (+ untouched reference model).

    ``slow_s`` > 0 throttles the served model's predict so a request
    flood reliably overruns a small admission queue; the reference
    stays fast for computing expected labels.
    """
    import time as _time

    import numpy as np

    from repro.classify import get_classifier
    from repro.serve import ModelRegistry

    centers = np.array([[[-1.0, 0.0], [1.0, 0.0]],
                        [[0.0, -1.0], [0.0, 1.0]]])
    model = get_classifier("knn").from_centers(centers)
    reference = get_classifier("knn").from_centers(centers)
    if slow_s:
        base = model.predict

        def slow_predict(iq, qubit=None):
            _time.sleep(slow_s)
            return base(iq, qubit=qubit)

        model.predict = slow_predict
    return ModelRegistry({"knn": model}), reference


def _check_request_storm(obs):
    if obs["wrong_labels"]:
        return (f"{obs['wrong_labels']} served label(s) differed from "
                f"direct predict")
    if obs["untyped_errors"]:
        return (f"{obs['untyped_errors']} failure(s) were not the typed "
                f"ServeOverloadError: {obs['error_types']}")
    if not obs["rejected"]:
        return "the flood never tripped the 429 back-pressure path"
    if obs["rejected_counter"] < obs["rejected"]:
        return (f"serve.rejected counter ({obs['rejected_counter']}) "
                f"missed observed 429s ({obs['rejected']})")
    if not obs["recovered"]:
        return "a post-storm request failed: the server did not recover"
    return True


@pytest.mark.storm
def test_serve_request_storm(ctx):
    """a concurrent request flood against a tiny admission queue:
    immediate typed 429s, zero wrong labels, full recovery after the
    flood."""
    import threading

    import numpy as np

    from repro.errors import ServeOverloadError
    from repro.serve import ServeClient, ServeConfig, ServerThread

    registry, reference = _storm_registry(slow_s=0.05)
    config = ServeConfig(max_queue=2, batch_window_ms=1.0,
                         default_deadline_ms=10_000.0)
    rng = np.random.default_rng(ctx.seed)
    points = rng.uniform(-1.5, 1.5, (40, 2))
    expected = reference.predict(points)

    served = 0
    rejected = 0
    wrong = 0
    error_types: list[str] = []
    lock = threading.Lock()
    with ServerThread(registry, config) as handle:
        def flood():
            nonlocal served, rejected, wrong
            try:
                with ServeClient(handle.host, handle.port) as client:
                    labels = client.classify("knn", points)
            except ServeOverloadError:
                with lock:
                    rejected += 1
                return
            except Exception as exc:  # noqa: BLE001 - graded below
                with lock:
                    error_types.append(type(exc).__name__)
                return
            with lock:
                served += 1
                if not np.array_equal(labels, expected):
                    wrong += 1

        threads = [threading.Thread(target=flood) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # The flood is over; one clean request must succeed.
        with ServeClient(handle.host, handle.port) as client:
            recovered = np.array_equal(
                client.classify("knn", points), expected)
        stats = handle.server.counters()
    assert_clean(_check_request_storm, {
        "served": served,
        "rejected": rejected,
        "wrong_labels": wrong,
        "untyped_errors": len(error_types),
        "error_types": error_types,
        "rejected_counter": stats["serve.rejected"],
        "recovered": recovered,
    })


def _check_slow_client(obs):
    if not obs["disconnects"]:
        return ("the stalled reader was never evicted "
                "(serve.slow_client_disconnects stayed 0)")
    if not obs["healthy_ok"]:
        return ("a healthy client got wrong labels (or none) while the "
                "stalled one was being evicted")
    return True


@pytest.mark.storm
def test_serve_slow_client(ctx):
    """a client that floods requests but never reads responses is
    evicted by the write-drain timeout while healthy clients keep
    getting exact labels."""
    import socket as socketlib
    import time as _time

    import numpy as np

    from repro.serve import ServeClient, ServeConfig, ServerThread
    from repro.serve.protocol import encode_request

    registry, reference = _storm_registry()
    config = ServeConfig(batch_window_ms=1.0, write_timeout_s=0.3,
                         sndbuf_bytes=8192, max_queue=256,
                         default_deadline_ms=30_000.0)
    rng = np.random.default_rng(ctx.seed ^ 0xC11E)
    points = rng.uniform(-1.5, 1.5, (1000, 2))
    with ServerThread(registry, config) as handle:
        stalled = socketlib.socket()
        stalled.setsockopt(
            socketlib.SOL_SOCKET, socketlib.SO_RCVBUF, 4096)
        stalled.connect((handle.host, handle.port))
        payload = b"".join(
            encode_request(i, "knn", points) for i in range(200))
        try:
            # Never read a byte back: the responses must jam the
            # (deliberately tiny) send path until the drain times out.
            stalled.sendall(payload)
        except OSError:
            pass  # eviction mid-send resets the socket: expected
        deadline = _time.monotonic() + 10.0
        while (_time.monotonic() < deadline
               and not handle.server.counters()[
                   "serve.slow_client_disconnects"]):
            _time.sleep(0.05)
        with ServeClient(handle.host, handle.port) as client:
            healthy_ok = np.array_equal(
                client.classify("knn", points[:50]),
                reference.predict(points[:50]))
        stats = handle.server.counters()
        stalled.close()
    assert_clean(_check_slow_client, {
        "disconnects": stats["serve.slow_client_disconnects"],
        "healthy_ok": healthy_ok,
        "served": stats["serve.requests"],
    })


def _check_stats_scrape_storm(obs):
    if obs["scrapes"] < obs["expected_scrapes"]:
        return (f"only {obs['scrapes']} of {obs['expected_scrapes']} "
                f"stats scrapes were answered during the flood")
    if obs["slow_scrapes"]:
        return (f"{obs['slow_scrapes']} scrape(s) exceeded the "
                f"{obs['scrape_budget_s']:g} s responsiveness budget")
    if obs["torn"]:
        return (f"{len(obs['torn'])} internally inconsistent "
                f"snapshot(s), e.g. {obs['torn'][0]}")
    if obs["non_monotonic"]:
        return (f"cumulative counters went backwards between scrapes: "
                f"{obs['non_monotonic'][0]}")
    if not obs["flooded"]:
        return "the flood never actually loaded the server"
    if not obs["recovered"]:
        return "a post-storm classify failed: the server did not recover"
    return True


@pytest.mark.storm
def test_serve_stats_scrape_storm(ctx):
    """in-band {'op': 'stats'} scrapes during a request flood: every
    scrape answers fast (admission cannot reject it), no snapshot shows
    more requests in flight than the queue holds, counters stay
    monotonic, traffic is undisturbed."""
    import threading
    import time as _time

    import numpy as np

    from repro.errors import ServeError
    from repro.serve import ServeClient, ServeConfig, ServerThread

    registry, reference = _storm_registry(slow_s=0.01)
    config = ServeConfig(max_queue=4, batch_window_ms=1.0,
                         default_deadline_ms=5_000.0)
    rng = np.random.default_rng(ctx.seed ^ 0x57A7)
    points = rng.uniform(-1.5, 1.5, (200, 2))
    expected = reference.predict(points)
    scrape_budget_s = 1.0
    n_scrapes = 20

    with ServerThread(registry, config) as handle:
        stop = threading.Event()

        def flood():
            with ServeClient(handle.host, handle.port) as client:
                while not stop.is_set():
                    try:
                        client.classify("knn", points)
                    except ServeError:
                        continue  # 429/408 are the flood working

        threads = [threading.Thread(target=flood, daemon=True)
                   for _ in range(8)]
        for t in threads:
            t.start()

        snapshots = []
        durations = []
        with ServeClient(handle.host, handle.port) as scraper:
            for _ in range(n_scrapes):
                t0 = _time.perf_counter()
                snapshots.append(scraper.stats())
                durations.append(_time.perf_counter() - t0)
                _time.sleep(0.02)
        stop.set()
        for t in threads:
            t.join(timeout=15)

        with ServeClient(handle.host, handle.port) as client:
            recovered = np.array_equal(
                client.classify("knn", points), expected)

    # Consistency: admission never lets more requests in flight than
    # the queue holds, and every snapshot must show that.
    torn = []
    for i, snap in enumerate(snapshots):
        if snap["inflight"] > snap["max_queue"]:
            torn.append(f"scrape {i}: inflight {snap['inflight']} "
                        f"over max_queue {snap['max_queue']}")
    non_monotonic = []
    for prev, cur in zip(snapshots, snapshots[1:]):
        for key, value in prev["counters"].items():
            if cur["counters"][key] < value:
                non_monotonic.append(
                    f"{key}: {value} -> {cur['counters'][key]}")
    final = snapshots[-1]["counters"]
    assert_clean(_check_stats_scrape_storm, {
        "scrapes": len(snapshots),
        "expected_scrapes": n_scrapes,
        "slow_scrapes": sum(d > scrape_budget_s for d in durations),
        "scrape_budget_s": scrape_budget_s,
        "max_scrape_s": round(max(durations), 4),
        "torn": torn,
        "non_monotonic": non_monotonic,
        "flooded": (final["serve.requests"] + final["serve.rejected"]
                    + final["serve.deadline_expired"]) > 0,
        "recovered": recovered,
    })

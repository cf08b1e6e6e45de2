"""Benchmark of the cryogenic design flow, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 8 \\
        --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it carries the host fingerprint and the details behind the
verdict.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins"

# Pinned before numpy is imported anywhere: serial BLAS, serial fan-outs,
# no on-disk result cache (it would serve later runs), no telemetry.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "REPRO_JOBS"):
    os.environ[_var] = "1"
for _var in ("REPRO_CACHE_DIR", "REPRO_EXECUTOR"):
    os.environ.pop(_var, None)
os.environ["PYTHONPATH"] = str(SRC)

# numpy loads after the pins above.
from workloads import PIN_SEED, WORKLOADS, cpu_seconds  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs for the self-test; no pins")
    ap.add_argument("--write-pins", action="store_true",
                    help="record this run's outputs as the workload's pins")
    return ap.parse_args(argv)


def cold_import(modules: tuple[str, ...]) -> None:
    """Cold start: a fresh interpreter imports the workload's layers."""
    import subprocess

    subprocess.run([sys.executable, "-c", "import " + ", ".join(modules)],
                   cwd=ROOT, check=True, timeout=120)


def host_fingerprint() -> dict:
    import platform

    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


SETUP_REPEATS = 3


def run(args: argparse.Namespace) -> dict:
    import metrics
    from tracer import Tracer

    import repro
    from repro import telemetry

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    telemetry.disable()
    workload = WORKLOADS[args.workload](smoke=args.smoke)

    setup_times, state = [], None
    for i in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        c0 = cpu_seconds()
        cold_import(workload.modules)
        state = workload.setup(args.seed)
        setup_times.append(cpu_seconds() - c0)

    tracer = Tracer() if args.trace else None
    units = []
    try:
        if tracer is not None:
            metrics.install(tracer)
            workload.trace_hooks(tracer, state)
        t_end = time.perf_counter() + args.seconds
        while not units or (time.perf_counter() < t_end and (
                workload.max_units is None
                or len(units) < workload.max_units)):
            units.append(workload.unit(state))
        if tracer is not None:
            tracer.restore()
            values = metrics.per_layer(
                tracer, units, workload.layer_metrics(tracer, state, units))
            units_of = metrics.PER_LAYER
        else:
            values = metrics.end_to_end(setup_times, units,
                                        workload.latencies(units))
            units_of = metrics.END_TO_END
        pins_path = PINS / f"{workload.name}.json"
        if args.write_pins:
            fixed, seeded = workload.pinned(units[0])
            pins_path.parent.mkdir(exist_ok=True)
            pins_path.write_text(json.dumps(
                {"seed": args.seed, "seed_independent": fixed,
                 "seed_dependent": seeded}, indent=1, sort_keys=True) + "\n")
        pins = json.loads(pins_path.read_text()) \
            if pins_path.exists() else None
        verdict = workload.check(state, units, pins)
        if pins is None and not args.smoke:
            verdict.op(False, f"no pins at {pins_path}")
        if tracer is not None:
            for name in workload.layers:
                verdict.op(values[name] > 0,
                           f"{name} reads 0: no call reached its wrapper")
    finally:
        if tracer is not None:
            tracer.restore()
        workload.teardown(state)

    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "host": host_fingerprint(),
        "units": len(units), "unit_s": [round(u.seconds, 4) for u in units],
        "unit_wall_s": [round(u.wall_s, 4) for u in units],
        "setup_s": [round(s, 4) for s in setup_times],
        "ops": {name: round(s, 4) for name, s in units[0].ops[:16]},
        "problems": verdict.problems,
    }))
    return {
        "correct": verdict.failed == 0 and verdict.attempted > 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": float(v), "unit": units_of[name]}
                    for name, v in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    # Ledger writes and other scratch stay inside the checkout.
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_RUNS_DIR"] = str(scratch / "runs")
    os.environ["TMPDIR"] = str(scratch)
    try:
        result = run(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

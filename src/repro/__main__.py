"""Command-line interface: regenerate paper artifacts from the shell.

    python -m repro table1          # SoC timing (Table 1)
    python -m repro fig6            # power breakdown (Fig. 6)
    python -m repro table2          # cycles per classification (Table 2)
    python -m repro fig7            # scaling study (Fig. 7)
    python -m repro fig2|fig3|fig5  # the remaining artifacts
    python -m repro ablations       # ABL-1..4
    python -m repro extensions      # EXT-THERMAL/FPGA/QEC/VDD/VQE/MISMATCH
    python -m repro ext_seu         # EXT-SEU fault-injection campaign
    python -m repro stats           # flow stage-timing tree (telemetry)
    python -m repro all             # every artifact above
    python -m repro run fig6        # one experiment + ledger + verdict
    python -m repro report          # latest-vs-paper / drift tables
    python -m repro compare A B     # per-metric deltas of two runs
    python -m repro profile fig2    # sampler+tracer deep profile
    python -m repro serve           # batched classification service

The subcommands are *generated* from the experiment registry
(:mod:`repro.experiments.registry`) by :func:`build_parser`: every
registered :class:`~repro.experiments.registry.ExperimentSpec` is a
command, umbrella groups (``extensions``) expand to their members, and
``all`` expands to every spec flagged for it.  Each command accepts only
the flags it honours (``repro <command> --help`` lists them); the shared
sets come from one parent parser each:

* flow -- ``--calibrated`` runs the honest flow (staged calibration
  first) instead of the fast golden-parameter flow; ``--shots N`` sets
  the ISS workload size; ``--jobs N`` parallelizes the flow's fan-outs
  (library builds, and -- for multi-experiment commands -- the
  experiments themselves) over the :mod:`repro.runtime` executor.
  ``REPRO_JOBS`` in the environment is the ``--jobs`` default;
  ``REPRO_CACHE_DIR`` additionally turns on the on-disk result cache so
  repeat runs skip finished work;
* logging -- ``-v`` / ``--quiet`` raise/suppress diagnostic logging
  (the package logs through the stdlib ``repro`` logger hierarchy);
* telemetry -- ``--trace`` enables span tracing and prints the timing
  tree at exit; ``--trace FILE`` writes the full trace to FILE instead,
  as flat span-per-line JSONL when FILE ends in ``.jsonl`` and as
  Chrome/Perfetto ``trace_event`` JSON (open it at ``ui.perfetto.dev``)
  otherwise -- on parallel runs, worker spans are merged back into one
  tree.  ``--metrics`` prints the flat metrics-registry summary at exit;
* ledger -- ``--runs-dir`` / ``--no-ledger``, below.

Provenance (the run ledger, :mod:`repro.provenance`): every experiment
invocation appends a :class:`~repro.provenance.records.RunRecord` to
the append-only JSONL ledger under ``--runs-dir`` (default:
``REPRO_RUNS_DIR`` or ``.repro/runs``) and ends with a PASS/WARN/FAIL
paper-fidelity verdict from the experiment's declared
:class:`~repro.provenance.fidelity.FidelitySpec`.  ``repro run <exp>``
is the explicit single-experiment form; ``repro report`` renders the
latest-vs-paper and latest-vs-previous drift tables (``--json`` /
``--markdown`` for machines, ``--strict`` exits non-zero on any FAIL);
``repro compare <runA> <runB>`` diffs two ledger entries, including
ingested benchmark records.  ``--no-ledger`` skips the append.

Deep observability (:mod:`repro.observe`): ``repro profile <exp>`` runs
one registered experiment under the resource sampler and the tracer,
prints a self-time attribution table (top span names by exclusive wall
time) plus resource peaks -- under ``--jobs N`` the merged worker spans
show the time of every fanned-out item -- writes a trace
(``--trace FILE``, default ``profile_<exp>.trace.json``), and appends a
``kind="profile"`` RunRecord.  Every experiment invocation additionally
runs the sampler, so RunRecords carry peak RSS / CPU utilization and
``repro report`` renders a resource table.

Usage errors and invalid configurations
(:class:`~repro.errors.ConfigError`) exit with status 2 after one
``error:`` line.  Reports go through :func:`_report` (a thin
``logging`` wrapper), so ``--quiet`` silences everything below WARNING
with no print() to chase.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from functools import partial

from repro import telemetry

_LOG = logging.getLogger("repro.cli")


class _CLIFormatter(logging.Formatter):
    """Bare text for CLI reports; ``level name: message`` for the rest."""

    def format(self, record: logging.LogRecord) -> str:
        if record.name == _LOG.name and record.levelno == logging.INFO:
            return record.getMessage()
        return (f"{record.levelname.lower()}: {record.name}: "
                f"{record.getMessage()}")


def _configure_logging(verbose: bool, quiet: bool) -> None:
    """Route the ``repro`` logger hierarchy to stdout for this process."""
    root = logging.getLogger("repro")
    root.setLevel(logging.DEBUG if verbose else logging.INFO)
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(_CLIFormatter())
    if quiet:
        handler.setLevel(logging.WARNING)
    elif verbose:
        handler.setLevel(logging.DEBUG)
    else:
        handler.setLevel(logging.INFO)
    # Re-running main() in one process (tests) must not stack handlers.
    for old in [h for h in root.handlers
                if isinstance(h, logging.StreamHandler)
                and not isinstance(h, logging.NullHandler)]:
        root.removeHandler(old)
    root.addHandler(handler)


def _report(text: str = "") -> None:
    """Emit one artifact/report block to the user."""
    _LOG.info("%s", text)


def _study_config(args):
    """The :class:`~repro.core.StudyConfig` the flow flags describe."""
    from repro.core import StudyConfig

    return StudyConfig(fast=not args.calibrated, shots=args.shots,
                       jobs=args.jobs)


def _expand(command: str):
    """A command -> the ordered experiment specs it runs."""
    from repro.experiments import registry

    if command == "all":
        return [s for s in registry.all_specs() if s.in_all]
    groups = registry.groups()
    if command in groups:
        return groups[command]
    return [registry.get(command)]


# ---------------------------------------------------------------------- #
# Provenance: every experiment execution yields (report text, RunRecord)
# from ExperimentSpec.run_recorded.
# ---------------------------------------------------------------------- #
def _ledger(args):
    """The run ledger for this invocation (None with ``--no-ledger``)."""
    if args.no_ledger:
        return None
    from repro.provenance import RunLedger

    return RunLedger(args.runs_dir)


def _report_verdict(record, ledger) -> None:
    """The fidelity verdict + ledger line ``repro run`` ends with."""
    from repro.provenance import FidelityReport

    if record.fidelity:
        fidelity = FidelityReport.from_dict(record.fidelity)
        _report(f"fidelity[{record.experiment}]: {fidelity.verdict}")
        for line in fidelity.summary_lines():
            _report(line)
    else:
        _report(f"fidelity[{record.experiment}]: no spec declared")
    if ledger is not None:
        ledger.append(record)
        _report(f"run {record.run_id} appended to {ledger.path}")


def _run_serial(specs, config):
    """Yield ``(text, RunRecord)`` per spec, sharing one lazy study."""
    from repro.core import CryoStudy

    study = None
    for spec in specs:
        if spec.needs_study and study is None:
            study = CryoStudy(config)
        with telemetry.span("cli.experiment", experiment=spec.name):
            run = spec.run_recorded(study, config)
        yield run


# ---------------------------------------------------------------------- #
# Parallel experiment fan-out.  The shared study is prebuilt (through
# its heavy common stages) *before* the pool starts, so forked workers
# inherit it copy-on-write instead of rebuilding libraries per process;
# a worker that finds no inherited study (spawn start method) falls
# back to rebuilding from the config round-trip.
# ---------------------------------------------------------------------- #
_TASK_STUDY = None


def _experiment_task(config_data: dict, name: str) -> tuple[str, dict]:
    """Run one registered experiment end-to-end in a worker.

    Returns ``(report text, RunRecord dict)`` -- plain data, so the
    pair crosses the process boundary; the parent appends the record
    (single ledger writer) and prints the verdict.
    """
    from repro.core import CryoStudy, StudyConfig
    from repro.experiments import registry

    spec = registry.get(name)
    config = StudyConfig.from_dict(config_data)
    study = None
    if spec.needs_study:
        study = _TASK_STUDY or CryoStudy(config)
    with telemetry.span("cli.experiment", experiment=name):
        text, record = spec.run_recorded(study, config)
    return text, record.to_dict()


def _run_parallel(specs, config) -> list:
    """Fan independent experiments out over the executor."""
    global _TASK_STUDY
    from repro.core import CryoStudy
    from repro.provenance import RunRecord
    from repro.runtime import get_executor

    study = None
    if any(s.needs_study for s in specs):
        study = CryoStudy(config)
        with telemetry.span("cli.prebuild_shared_stages"):
            study.timing  # noqa: B018 - forces libraries/soc/placement
    _TASK_STUDY = study
    try:
        executor = get_executor(config.jobs)
        results = executor.map(partial(_experiment_task, config.to_dict()),
                               [s.name for s in specs])
    finally:
        _TASK_STUDY = None
    return [(text, RunRecord.from_dict(data)) for text, data in results]


def _run_experiments(args) -> int:
    """An experiment, group or ``all``: run, report, grade, record."""
    from repro.runtime import resolve_jobs

    config = _study_config(args)
    ledger = _ledger(args)
    specs = _expand(args.experiment)
    if resolve_jobs(args.jobs) > 1 and len(specs) > 1:
        runs = _run_parallel(specs, config)
    else:
        runs = _run_serial(specs, config)
    for text, record in runs:
        _report(text)
        _report_verdict(record, ledger)
        _report()
    _emit_telemetry(args)
    return 0


# ---------------------------------------------------------------------- #
# repro stats: run a representative slice of every instrumented layer
# and print the stage-timing tree.
# ---------------------------------------------------------------------- #
def _spice_probe(study) -> None:
    """One transistor-level inverter transient + DC solve.

    The fast flow characterizes with the analytic engine, so without
    this probe a ``repro stats`` trace would show no solver spans; the
    probe runs the same netlist the SPICE engine uses for one
    representative point.
    """
    from repro.cells import CellCharacterizer, CharacterizationConfig
    from repro.cells.catalog import full_catalog
    from repro.spice import dc_operating_point, ramp, transient

    config = CharacterizationConfig(engine="spice")
    char = CellCharacterizer(study.models, config)
    inv = next(c for c in full_catalog() if c.name == "INV_X1")
    wave = ramp(5e-12, 10e-12, 0.0, config.vdd)
    circuit = char.build_cell_circuit(inv, 2e-15, {"A": wave})
    transient(circuit, 60e-12, 0.25e-12, record=["A", inv.output])
    dc_operating_point(circuit)


def _reliability_probe() -> None:
    """A miniature SEU campaign so the trace covers the campaign layer."""
    import numpy as np

    from repro.reliability import CampaignConfig, qec_workload, run_campaign

    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 45)
    run_campaign(
        qec_workload(bits, distance=3),
        CampaignConfig(n_injections=12, seed=7),
    )


def _run_stats(args) -> int:
    """The ``repro stats`` command: trace one pass through the stack."""
    from repro.core import CryoStudy

    study = CryoStudy(_study_config(args))
    with telemetry.span("repro.stats", fast=not args.calibrated):
        # Flow stages trace themselves (flow.libraries,
        # flow.soc_model, flow.timing...); timing forces the chain.
        study.timing
        study.knn_cycles(20)
        with telemetry.span("stats.spice_probe"):
            _spice_probe(study)
        with telemetry.span("stats.reliability_probe"):
            _reliability_probe()
    if args.json:
        # Machine-readable twin of the text report: the full span trees
        # (nested dicts), the stage-cache ledger and the flat metrics
        # summary, so CI and the run ledger consume stats without
        # scraping the table.
        payload = {
            "mode": "calibrated" if args.calibrated else "fast",
            "spans": [root.to_dict() for root in telemetry.trace_roots()],
            "stage_cache": study.stage_cache_stats(),
            "metrics": telemetry.metrics_summary(),
        }
        _report(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        _report("Flow stage timings (fast mode)"
                if not args.calibrated else "Flow stage timings (calibrated)")
        # Depth 3 keeps the per-corner library builds visible while
        # folding the ~200 per-cell spans into their parents (the trace
        # file via --trace FILE keeps everything).
        _report(telemetry.render_tree(min_duration_s=1e-4, max_depth=3))
        cache = study.stage_cache_stats()
        _report()
        _report("stage cache accounting: "
                + "  ".join(f"{name}={ev['hits']}h/{ev['misses']}m"
                            for name, ev in cache.items()))
    _report()
    _emit_telemetry(args)
    return 0


# ---------------------------------------------------------------------- #
# --trace / --metrics output.
# ---------------------------------------------------------------------- #
def _emit_telemetry(args) -> None:
    """Write ``--trace FILE``, then print the rest of the telemetry."""
    if args.trace not in (None, "-"):
        from repro.observe import write_trace

        n = write_trace(args.trace, telemetry.trace_roots())
        _report(f"wrote {n} trace records to {args.trace}")
    _print_telemetry(args)


def _print_telemetry(args) -> None:
    """The bare ``--trace`` timing tree and the ``--metrics`` summary."""
    if args.trace == "-" and args.command != "stats":
        # stats already printed its tree.
        _report(telemetry.render_tree(min_duration_s=1e-4, max_depth=3))
    if args.metrics:
        _report()
        _report("metrics summary")
        _report(telemetry.metrics_lines(telemetry.metrics_summary()))


# ---------------------------------------------------------------------- #
# repro report / repro compare: read the ledger, re-run nothing.
# ---------------------------------------------------------------------- #
def _output_format(args) -> str:
    return "json" if args.json else "markdown" if args.markdown else "text"


def _run_report(args) -> int:
    from repro.provenance import RunLedger, build_report, render_report

    ledger = RunLedger(args.runs_dir)
    report = build_report(ledger)
    _report(render_report(report, _output_format(args)))
    if args.strict and report["verdict"] == "FAIL":
        _LOG.error("fidelity verdict is FAIL (--strict)")
        return 1
    return 0


def _run_compare(args) -> int:
    from repro.provenance import RunLedger, compare_records, render_compare

    ledger = RunLedger(args.runs_dir)
    if not ledger.exists():
        _report(f"no runs recorded yet under {ledger.runs_dir} -- "
                "run `repro run <experiment>` first")
        return 1
    try:
        a = ledger.find(args.run_a)
        b = ledger.find(args.run_b)
    except KeyError as exc:
        _LOG.error("%s", exc.args[0])
        return 2
    fmt = "json" if args.json else "text"
    _report(render_compare(compare_records(a, b), fmt))
    return 0


# ---------------------------------------------------------------------- #
# repro profile: one experiment under sampler + tracer.
# ---------------------------------------------------------------------- #
def _run_profile(args) -> int:
    from repro.observe import run_profile

    profile = run_profile(
        args.experiment,
        _study_config(args),
        interval_s=args.sample_interval,
        trace_path=args.trace if args.trace != "-" else None,
    )
    _report(profile.report_text)
    _report()
    _report(profile.attribution)
    _report()
    res = profile.resources
    if res:
        _report(
            f"resources: peak RSS {res['peak_rss_bytes'] / 1e6:.1f} MB, "
            f"CPU utilization {res['cpu_utilization']:.2f}, "
            f"peak threads {res['peak_threads']}, "
            f"peak fds {res['peak_fds']} "
            f"({res['samples']} samples at {res['interval_s'] * 1e3:.0f} ms)"
        )
    _report(f"wrote {profile.trace_events} trace records to "
            f"{profile.trace_path}")
    _report()
    _report_verdict(profile.record, _ledger(args))
    _print_telemetry(args)
    return 0


# ---------------------------------------------------------------------- #
# repro serve: the async batched classification service (repro.serve).
# ---------------------------------------------------------------------- #
def _run_serve(args) -> int:
    import asyncio

    from repro.serve import ClassifierServer, ModelRegistry, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        batch_window_ms=args.batch_window_ms,
        max_queue=args.max_queue,
    )
    registry = ModelRegistry.calibrated()
    server = ClassifierServer(registry, config, ledger=_ledger(args))

    async def run() -> None:
        await server.start()
        _report(f"serving {', '.join(registry.names())} on "
                f"{server.host}:{server.port} "
                f"(batch window {config.batch_window_ms:g} ms, "
                f"queue {config.max_queue})")
        for name, digest in registry.digests().items():
            _report(f"  model {name}: digest {digest}")
        try:
            await server.serve_forever()
        finally:
            record = await server.stop()
            _report(f"serve session {record.run_id}: "
                    f"{record.metrics.get('serve.requests', 0)} "
                    f"request(s), "
                    f"{record.metrics.get('serve.rejected', 0)} rejected, "
                    f"{record.metrics.get('serve.shots', 0)} shot(s)")
            _emit_telemetry(args)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


# ---------------------------------------------------------------------- #
# The parser: one subcommand per spec, group, ``all`` and builtin.
# ---------------------------------------------------------------------- #
def _positive(kind):
    """An argparse ``type``: ``kind(text)``, rejecting values <= 0."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0 (got {text})")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid <type> value"
    return parse


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser holding one shared flag set."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser, generated from the experiment registry."""
    from repro.experiments import registry

    logs = _flags()
    logs.add_argument("-v", "--verbose", action="store_true",
                      help="show debug-level diagnostics")
    logs.add_argument("-q", "--quiet", action="store_true",
                      help="suppress reports; warnings only")
    flow = _flags()
    flow.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="parallel workers for the fan-outs (default: REPRO_JOBS or "
             "serial; 0 = one per CPU)",
    )
    flow.add_argument(
        "--calibrated", action="store_true",
        help="run the full flow including compact-model calibration",
    )
    flow.add_argument("--shots", type=int, default=15,
                      help="shots per qubit for ISS workloads")
    tele = _flags()
    tele.add_argument(
        "--trace", nargs="?", const="-", default=None, metavar="FILE",
        help="enable span tracing; print the timing tree at exit, or "
             "write the trace to FILE (JSONL if FILE ends in .jsonl, "
             "else Chrome/Perfetto JSON)",
    )
    tele.add_argument("--metrics", action="store_true",
                      help="enable metrics; print the registry summary "
                           "at exit")
    runs = _flags()
    runs.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run-ledger directory (default: REPRO_RUNS_DIR or "
             ".repro/runs)",
    )
    ledger = _flags(runs)
    ledger.add_argument("--no-ledger", action="store_true",
                        help="do not append RunRecords to the run ledger")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")

    def command(name, help_text, handler, *parents, **defaults):
        sub = commands.add_parser(name, help=help_text,
                                  description=help_text,
                                  parents=[logs, *parents])
        sub.set_defaults(handler=handler, **defaults)
        return sub

    experiment_flags = (flow, tele, ledger)
    for spec in registry.all_specs():
        command(spec.name, spec.title, _run_experiments, *experiment_flags,
                experiment=spec.name)
    groups = registry.groups()
    for group in sorted(groups):
        command(group, "runs " + ", ".join(s.name for s in groups[group]),
                _run_experiments, *experiment_flags, experiment=group)
    command("all", "every artifact, in order", _run_experiments,
            *experiment_flags, experiment="all")
    command("run", "one experiment (or group, or all) with its fidelity "
            "verdict", _run_experiments, *experiment_flags).add_argument(
        "experiment", metavar="EXPERIMENT",
        choices=[*registry.names(), *sorted(groups), "all"])

    sub = command("stats", "trace one pass through every instrumented "
                  "layer", _run_stats, flow, tele)
    sub.add_argument("--json", action="store_true",
                     help="span trees, stage cache and metrics as JSON")

    sub = command("report", "latest-vs-paper and drift tables from the "
                  "run ledger", _run_report, runs)
    sub.add_argument("--json", action="store_true", help="JSON output")
    sub.add_argument("--markdown", action="store_true",
                     help="markdown output")
    sub.add_argument("--strict", action="store_true",
                     help="exit 1 on any FAIL verdict")

    sub = command("compare", "per-metric deltas of two ledger runs",
                  _run_compare, runs)
    sub.add_argument("run_a", metavar="RUN_A",
                     help="run id or unambiguous prefix")
    sub.add_argument("run_b", metavar="RUN_B",
                     help="run id or unambiguous prefix")
    sub.add_argument("--json", action="store_true", help="JSON output")

    sub = command("profile", "one experiment under the resource sampler "
                  "and the tracer", _run_profile, *experiment_flags)
    sub.add_argument("experiment", metavar="EXPERIMENT",
                     choices=registry.names())
    sub.add_argument(
        "--sample-interval", type=_positive(float), default=0.05,
        metavar="SEC",
        help="resource-sampler period in seconds (default: 0.05)",
    )

    sub = command("serve", "batched classification service", _run_serve,
                  tele, ledger)
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    sub.add_argument("--port", type=int, default=8742,
                     help="TCP port (default: 8742; 0 = OS pick)")
    sub.add_argument(
        "--batch-window-ms", type=float, default=2.0, metavar="MS",
        help="micro-batch coalescing window (default: 2.0)",
    )
    sub.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="admitted-request cap before 429 back-pressure "
             "(default: 64)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ConfigError

    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # Usage errors (status 2) and --help (0) return their status so
        # callers of main() see an exit code either way.
        return exc.code
    _configure_logging(args.verbose, args.quiet)
    if args.command == "stats" or (
            "trace" in args and (args.trace is not None or args.metrics)):
        telemetry.reset()
        telemetry.enable()
    try:
        return args.handler(args)
    except ConfigError as exc:
        _LOG.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""``repro profile``: run one experiment under the full deep-observability
stack and answer "where does the time and memory go?".

One call wires together everything this package provides:

* telemetry tracing is reset and enabled, so the run produces a full
  span tree (worker spans included, re-parented by the runtime);
* a :class:`~repro.observe.sampler.ResourceSampler` watches RSS/CPU/
  threads/FDs for the duration;
* executor health monitoring (:mod:`repro.observe.health`) collects
  per-task heartbeats from any fan-out the experiment performs;
* the span tree is exported through
  :func:`~repro.observe.perfetto.write_trace`: Chrome/Perfetto
  ``trace_event`` JSON ready for ``ui.perfetto.dev``, or JSONL when the
  file name ends in ``.jsonl``;
* a **self-time attribution table** ranks span names by *exclusive*
  wall time -- the time spent in a span minus its children -- which is
  the "what should I optimize next" view the inclusive tree hides;
* the run lands in the provenance ledger as a ``kind="profile"``
  :class:`~repro.provenance.records.RunRecord` whose ``resources``
  field carries the sampler peaks, so profiles are comparable across
  commits with ``repro compare`` like any other run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import telemetry
from repro.observe import health
from repro.observe.perfetto import write_trace
from repro.observe.sampler import DEFAULT_INTERVAL_S, ResourceSampler

__all__ = ["ProfileResult", "run_profile", "self_time_rows",
           "self_time_table"]

#: Rows shown in the attribution table by default.
DEFAULT_TOP_N = 15


# ---------------------------------------------------------------------- #
# Self-time attribution
# ---------------------------------------------------------------------- #
def self_time_rows(roots) -> list[dict]:
    """Aggregate spans by name; sorted by exclusive wall time, desc.

    ``self_s`` is a span's duration minus its children's -- summed over
    every span of that name -- so a hot leaf beats a long umbrella.
    """
    agg: dict[str, dict] = {}
    for root in roots:
        for _, span in root.walk():
            child_s = sum(c.duration_s for c in span.children)
            row = agg.get(span.name)
            if row is None:
                row = agg[span.name] = {
                    "name": span.name, "calls": 0,
                    "total_s": 0.0, "self_s": 0.0,
                }
            row["calls"] += 1
            row["total_s"] += span.duration_s
            row["self_s"] += max(0.0, span.duration_s - child_s)
    rows = sorted(agg.values(), key=lambda r: -r["self_s"])
    grand = sum(r["self_s"] for r in rows) or 1.0
    for row in rows:
        row["self_pct"] = 100.0 * row["self_s"] / grand
    return rows


def self_time_table(roots, top_n: int = DEFAULT_TOP_N) -> str:
    """The printable attribution table (top ``top_n`` span names)."""
    from repro.core.report import format_table

    rows = self_time_rows(roots)
    shown = rows[:top_n]
    body = [
        [r["name"], str(r["calls"]), f"{r['self_s'] * 1e3:.2f}",
         f"{r['self_pct']:.1f} %", f"{r['total_s'] * 1e3:.2f}"]
        for r in shown
    ]
    hidden = len(rows) - len(shown)
    title = "Self-time attribution (exclusive wall time)"
    if hidden > 0:
        title += f" -- top {len(shown)} of {len(rows)} span names"
    return format_table(
        ["span", "calls", "self (ms)", "self %", "incl (ms)"],
        body, title=title)


# ---------------------------------------------------------------------- #
# The profile run
# ---------------------------------------------------------------------- #
@dataclass
class ProfileResult:
    """Everything one ``repro profile`` invocation produced."""

    experiment: str
    report_text: str
    """The experiment's own artifact report."""
    attribution: str
    """The rendered self-time table."""
    trace_path: str
    trace_events: int
    resources: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)
    record: object = None
    """The ledger :class:`~repro.provenance.records.RunRecord`."""


def run_profile(name: str, config, *,
                interval_s: float = DEFAULT_INTERVAL_S,
                trace_path: str | None = None,
                stall_timeout_s: float = health.DEFAULT_STALL_TIMEOUT_S,
                top_n: int = DEFAULT_TOP_N) -> ProfileResult:
    """Run registered experiment ``name`` under sampler+tracer+health.

    The trace goes to ``trace_path`` (default
    ``profile_<name>.trace.json``) in the format its name selects.  The
    caller owns ledger appends (the CLI does it so ``--no-ledger`` keeps
    working); everything else -- tracing lifecycle, trace file,
    attribution, resource fold-in -- happens here.
    """
    from repro.experiments import registry

    spec = registry.get(name)
    path = trace_path or f"profile_{name}.trace.json"

    telemetry.reset()
    telemetry.enable()
    health.enable(stall_timeout_s=stall_timeout_s)
    sampler = ResourceSampler(interval_s=interval_s)
    try:
        with telemetry.span("profile", experiment=name):
            study = None
            if spec.needs_study:
                from repro.core import CryoStudy

                study = CryoStudy(config)
            report_text, record = spec.run_recorded(
                study, config, kind="profile", sampler=sampler)
        health_summary = health.summary()
    finally:
        health.disable()
    record.telemetry["health"] = health_summary

    telemetry.gauge("observe.peak_rss_bytes",
                    record.resources.get("peak_rss_bytes", 0))
    telemetry.gauge("observe.cpu_utilization",
                    record.resources.get("cpu_utilization", 0.0))

    roots = telemetry.trace_roots()
    n_events = write_trace(path, roots, samples=sampler.samples)
    return ProfileResult(
        experiment=name,
        report_text=report_text,
        attribution=self_time_table(roots, top_n=top_n),
        trace_path=path,
        trace_events=n_events,
        resources=record.resources,
        health=health_summary,
        record=record,
    )

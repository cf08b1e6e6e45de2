"""Regression reporting over the run ledger.

Two consumers, one data model:

* ``repro report`` -- for every experiment with ledger history, the
  *latest-vs-paper* fidelity table (replayed from the stored
  :class:`~repro.provenance.fidelity.FidelityReport`, no re-running)
  and the *latest-vs-previous* drift table (per-metric deltas plus
  wall-time regressions), rendered as text, ``--markdown``, or
  ``--json``;
* ``repro compare A B`` -- the same per-metric delta machinery between
  two explicit runs (id or unambiguous prefix), including ingested
  benchmark records, so "did commit X make fig6 slower or less
  faithful" is one command.

Everything here is pure: ledger in, plain-dict report out, string
renderings on top.  :func:`build_report` is the single source of truth;
the renderers never recompute.
"""

from __future__ import annotations

import json

from repro.provenance.fidelity import FAIL, PASS, WARN, worst
from repro.provenance.records import RunRecord
from repro.provenance.store import RunLedger

__all__ = [
    "build_report",
    "compare_records",
    "render_compare",
    "render_report",
]

#: Latest-vs-previous wall time growing by more than this fraction is
#: flagged as a performance regression (and the same threshold drives
#: ``repro compare``'s wall-time column).
WALL_REGRESSION_THRESHOLD = 0.25


def _pct(new: float, old: float) -> float | None:
    """Relative change new-vs-old in percent (None when old is ~0)."""
    if abs(old) < 1e-12:
        return None
    return (new - old) / abs(old) * 100.0


def _metric_drift(latest: RunRecord, previous: RunRecord) -> list[dict]:
    rows = []
    for name, value in latest.metrics.items():
        if name not in previous.metrics:
            continue
        prev = previous.metrics[name]
        rows.append({
            "metric": name,
            "previous": prev,
            "latest": value,
            "delta": value - prev,
            "pct": _pct(value, prev),
        })
    return rows


def _wall_drift(latest: RunRecord, previous: RunRecord,
                threshold: float) -> dict:
    pct = _pct(latest.wall_s, previous.wall_s)
    return {
        "previous_s": previous.wall_s,
        "latest_s": latest.wall_s,
        "pct": pct,
        "regression": pct is not None and pct > threshold * 100.0,
    }


# ---------------------------------------------------------------------- #
# The report data model
# ---------------------------------------------------------------------- #
def build_report(ledger: RunLedger,
                 wall_threshold: float = WALL_REGRESSION_THRESHOLD) -> dict:
    """Everything ``repro report`` shows, as one plain dict."""
    # One pass over the ledger file (so a corrupt line warns once),
    # grouped in memory by experiment.
    by_experiment: dict[str, list[RunRecord]] = {}
    bench_records: list[RunRecord] = []
    for record in ledger.records():
        if record.kind == "bench" and record.experiment == "bench_summary":
            bench_records.append(record)
        elif record.kind == "experiment":
            by_experiment.setdefault(record.experiment, []).append(record)

    experiments = []
    verdicts = []
    for name, history in by_experiment.items():
        latest = history[-1]
        previous = history[-2] if len(history) > 1 else None
        entry = {
            "experiment": name,
            "run_id": latest.run_id,
            "start_ts": latest.start_ts,
            "wall_s": latest.wall_s,
            "config_digest": latest.config_digest,
            "verdict": latest.verdict,
            "checks": (latest.fidelity or {}).get("checks", []),
            "resources": dict(latest.resources),
            "previous": None,
        }
        if latest.verdict:
            verdicts.append(latest.verdict)
        if previous is not None:
            entry["previous"] = {
                "run_id": previous.run_id,
                "start_ts": previous.start_ts,
                "metrics": _metric_drift(latest, previous),
                "wall": _wall_drift(latest, previous, wall_threshold),
            }
        experiments.append(entry)

    bench = None
    bench_history = bench_records[-2:]
    if bench_history:
        latest = bench_history[-1]
        bench = {
            "run_id": latest.run_id,
            "start_ts": latest.start_ts,
            "benches": len(latest.metrics),
            # Per-bench p50/p95/p99 wall times, recorded at ingestion
            # (repro.provenance.store.ingest_bench_summary).
            "percentiles": latest.telemetry.get("bench_percentiles", {}),
            "previous": None,
        }
        if len(bench_history) > 1:
            rows = _metric_drift(latest, bench_history[0])
            bench["previous"] = {
                "run_id": bench_history[0].run_id,
                "metrics": rows,
                "regressions": [
                    r for r in rows
                    if r["pct"] is not None
                    and r["pct"] > wall_threshold * 100.0
                ],
            }

    wall_regressions = [
        e["experiment"] for e in experiments
        if e["previous"] and e["previous"]["wall"]["regression"]
    ]
    return {
        "runs_dir": str(ledger.runs_dir),
        "experiments": experiments,
        "bench": bench,
        "wall_regressions": wall_regressions,
        "verdict": worst(verdicts) if verdicts else None,
        "empty": not experiments and bench is None,
    }


# ---------------------------------------------------------------------- #
# Renderings
# ---------------------------------------------------------------------- #
def _fmt(value, digits: int = 6) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def render_report(report: dict, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "markdown":
        return _render_report_tables(report, markdown=True)
    return _render_report_tables(report, markdown=False)


def _render_report_tables(report: dict, markdown: bool) -> str:
    from repro.core.report import format_table

    def table(headers, rows, title):
        if markdown:
            return _markdown_table(headers, rows, title)
        return format_table(headers, rows, title=title)

    if report["empty"]:
        return (
            f"no runs recorded yet under {report['runs_dir']} -- "
            "run `repro run <experiment>` (or `repro all`) first"
        )
    sections = []

    fidelity_rows = []
    for entry in report["experiments"]:
        for check in entry["checks"]:
            fidelity_rows.append([
                entry["experiment"],
                check.get("name", "?"),
                check.get("status", "?"),
                _fmt(check.get("actual")),
                f"{_fmt(check.get('expected'))} "
                f"+/- {_fmt(check.get('tolerance'), 3)}",
                check.get("source", ""),
            ])
        if not entry["checks"]:
            fidelity_rows.append([
                entry["experiment"], "-", entry["verdict"] or "-",
                "-", "-", "no fidelity spec recorded",
            ])
    sections.append(table(
        ["experiment", "metric", "status", "latest", "paper", "source"],
        fidelity_rows,
        f"Latest vs paper (verdict: {report['verdict'] or 'n/a'})",
    ))

    drift_rows = []
    for entry in report["experiments"]:
        prev = entry["previous"]
        if prev is None:
            drift_rows.append([entry["experiment"], "-", "-", "-", "-",
                               "no prior run"])
            continue
        wall = prev["wall"]
        drift_rows.append([
            entry["experiment"],
            "(wall time)",
            f"{wall['previous_s']:.2f} s",
            f"{wall['latest_s']:.2f} s",
            f"{wall['pct']:+.1f} %" if wall["pct"] is not None else "-",
            "REGRESSION" if wall["regression"] else "",
        ])
        for row in prev["metrics"]:
            drift_rows.append([
                entry["experiment"],
                row["metric"],
                _fmt(row["previous"]),
                _fmt(row["latest"]),
                f"{row['pct']:+.2f} %" if row["pct"] is not None else "-",
                "",
            ])
    sections.append(table(
        ["experiment", "metric", "previous", "latest", "change", ""],
        drift_rows,
        "Latest vs previous run (drift)",
    ))

    resource_rows = []
    for entry in report["experiments"]:
        res = entry.get("resources") or {}
        if not res:
            continue
        resource_rows.append([
            entry["experiment"],
            f"{res.get('peak_rss_bytes', 0) / 1e6:.1f} MB",
            f"{res.get('cpu_utilization', 0.0):.2f}",
            str(res.get("peak_threads", "-")),
            str(res.get("peak_fds", "-")),
            str(res.get("samples", "-")),
        ])
    if resource_rows:
        sections.append(table(
            ["experiment", "peak RSS", "CPU util", "threads", "fds",
             "samples"],
            resource_rows,
            "Latest run resources (repro.observe sampler)",
        ))

    bench = report["bench"]
    if bench is not None:
        percentiles = bench.get("percentiles", {})

        def pcts(name: str) -> list[str]:
            p = percentiles.get(name, {})
            return [f"{p[q]:.3f}" if q in p else "-"
                    for q in ("p50", "p95", "p99")]

        if bench["previous"] is None:
            sections.append(
                f"bench ledger: {bench['benches']} benches in run "
                f"{bench['run_id']} (no prior bench run to compare)"
            )
        else:
            rows = [
                [r["metric"], f"{r['previous']:.3f}", f"{r['latest']:.3f}",
                 *pcts(r["metric"]),
                 f"{r['pct']:+.1f} %" if r["pct"] is not None else "-",
                 "REGRESSION" if r in bench["previous"]["regressions"]
                 else ""]
                for r in bench["previous"]["metrics"]
            ]
            sections.append(table(
                ["bench", "previous (s)", "latest (s)", "p50", "p95",
                 "p99", "change", ""],
                rows,
                "Benchmark wall times, latest vs previous",
            ))
    return "\n\n".join(sections)


def _markdown_table(headers, rows, title: str) -> str:
    lines = [f"### {title}", ""]
    lines.append("| " + " | ".join(str(h) for h in headers) + " |")
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# repro compare A B
# ---------------------------------------------------------------------- #
def compare_records(a: RunRecord, b: RunRecord,
                    wall_threshold: float = WALL_REGRESSION_THRESHOLD
                    ) -> dict:
    """Per-metric deltas between two runs (B relative to A)."""
    return {
        "a": {"run_id": a.run_id, "experiment": a.experiment,
              "start_ts": a.start_ts, "wall_s": a.wall_s,
              "config_digest": a.config_digest, "verdict": a.verdict,
              "metrics": dict(a.metrics)},
        "b": {"run_id": b.run_id, "experiment": b.experiment,
              "start_ts": b.start_ts, "wall_s": b.wall_s,
              "config_digest": b.config_digest, "verdict": b.verdict,
              "metrics": dict(b.metrics)},
        "same_experiment": a.experiment == b.experiment,
        "same_config": (a.config_digest == b.config_digest
                        and a.config_digest is not None),
        "metrics": _metric_drift(b, a),
        "only_a": sorted(set(a.metrics) - set(b.metrics)),
        "only_b": sorted(set(b.metrics) - set(a.metrics)),
        "wall": _wall_drift(b, a, wall_threshold),
    }


def render_compare(cmp: dict, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(cmp, indent=2, sort_keys=True)
    from repro.core.report import format_table

    a, b = cmp["a"], cmp["b"]
    head = (
        f"comparing {a['experiment']} run {a['run_id']} ({a['start_ts']})"
        f" -> {b['experiment']} run {b['run_id']} ({b['start_ts']})"
    )
    if not cmp["same_experiment"]:
        head += "\nwarning: runs are from different experiments"
    elif not cmp["same_config"]:
        head += "\nnote: config digests differ (not like-for-like)"
    wall = cmp["wall"]
    rows = [[
        "(wall time)", f"{wall['previous_s']:.3f} s",
        f"{wall['latest_s']:.3f} s",
        f"{wall['pct']:+.1f} %" if wall["pct"] is not None else "-",
        "REGRESSION" if wall["regression"] else "",
    ]]
    for row in cmp["metrics"]:
        rows.append([
            row["metric"], _fmt(row["previous"]), _fmt(row["latest"]),
            f"{row['pct']:+.2f} %" if row["pct"] is not None else "-",
            "",
        ])
    for name in cmp["only_a"]:
        rows.append([name, _fmt(a.get("metrics", {}).get(name)), "-", "-",
                     "only in A"])
    for name in cmp["only_b"]:
        rows.append([name, "-", _fmt(b.get("metrics", {}).get(name)), "-",
                     "only in B"])
    table = format_table(
        ["metric", "run A", "run B", "change", ""],
        rows,
        title="Per-metric comparison",
    )
    return head + "\n\n" + table


# Re-exported severity names so CLI code imports one module.
__all__ += ["FAIL", "PASS", "WARN"]

"""SLO burn-rate grading (repro.observe.slo)."""

from __future__ import annotations

import pytest

from repro.observe.slo import (
    DECOHERENCE_BUDGET_MS,
    DEFAULT_LATENCY_MS,
    ERROR_BUDGET,
    FAST_BURN,
    evaluate,
)
from repro.provenance.fidelity import FAIL, PASS, WARN


def test_default_spec_is_the_paper_budget():
    # 110 us decoherence budget x the serving benchmark's wire scale.
    assert DECOHERENCE_BUDGET_MS == pytest.approx(0.110)
    assert DEFAULT_LATENCY_MS == pytest.approx(110.0)
    assert ERROR_BUDGET == 0.01
    assert FAST_BURN == 2.0
    report = evaluate(DEFAULT_LATENCY_MS, total=1, latency_violations=0,
                      errors=0)
    assert report.checks[0]["objective"] == "p(latency > 110 ms) <= 0.01"


def test_zero_traffic_passes_with_zero_burn():
    report = evaluate(DEFAULT_LATENCY_MS, total=0, latency_violations=0,
                      errors=0)
    assert report.verdict == PASS
    assert all(c["burn_rate"] == 0.0 for c in report.checks)
    assert report.total == 0


def test_burn_rate_is_fraction_over_budget():
    # 30 of 1000 slow with a 1% budget: burn 3.0 -> past FAST_BURN.
    report = evaluate(DEFAULT_LATENCY_MS, total=1000,
                      latency_violations=30, errors=0)
    latency = report.checks[0]
    assert latency["name"] == "latency"
    assert latency["fraction"] == pytest.approx(0.03)
    assert latency["burn_rate"] == pytest.approx(3.0)
    assert latency["status"] == FAIL
    assert report.verdict == FAIL


def test_grading_boundaries():
    cases = [
        (10, PASS),   # burn exactly 1.0 -> budget holds
        (15, WARN),   # burn 1.5 -> burning, not gone
        (20, WARN),   # burn exactly FAST_BURN -> still WARN
        (21, FAIL),   # past FAST_BURN
    ]
    for bad, expected in cases:
        report = evaluate(DEFAULT_LATENCY_MS, total=1000,
                          latency_violations=bad, errors=0)
        assert report.checks[0]["status"] == expected, bad


def test_verdict_is_worst_check():
    report = evaluate(DEFAULT_LATENCY_MS, total=1000, latency_violations=0,
                      errors=50)
    assert report.checks[0]["status"] == PASS
    assert report.checks[1]["status"] == FAIL
    assert report.verdict == FAIL


def test_metrics_and_dict_round_trip():
    report = evaluate(DEFAULT_LATENCY_MS, total=200, latency_violations=2,
                      errors=1)
    metrics = report.metrics()
    assert metrics["serve.slo_latency_burn_rate"] == pytest.approx(1.0)
    assert metrics["serve.slo_errors_burn_rate"] == pytest.approx(0.5)
    doc = report.to_dict()
    assert doc["verdict"] == report.verdict
    assert [c["name"] for c in doc["checks"]] == ["latency", "errors"]
    assert doc["total"] == 200

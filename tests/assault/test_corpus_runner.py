"""The corpus as a whole, and replaying its scenarios outside a run."""

from __future__ import annotations

import warnings

import pytest

from repro.errors import ConfigError
from tests.assault import test_corpus as corpus
from tests.assault.conftest import make_ctx
from tests.assault.grading import expect_error

FAILED = pytest.fail.Exception


def _scenarios(tier=None):
    """``{name: function}`` of the corpus scenarios, optionally one tier."""
    return {
        name.removeprefix("test_"): fn
        for name, fn in vars(corpus).items()
        if name.startswith("test_") and callable(fn)
        and (tier is None or tier in _tiers(fn))
    }


def _tiers(fn):
    return [m.name for m in getattr(fn, "pytestmark", [])
            if m.name in corpus.TIERS]


def _replay(name, fn, root):
    """Run one scenario in a fresh sandbox; grade it PASS/WARN/FAIL."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fn(make_ctx(name, root))
        except FAILED as exc:
            return "FAIL", str(exc)
    return ("WARN", str(caught[0].message)) if caught else ("PASS", "")


class TestCorpus:
    def test_every_tier_populated(self):
        for tier in corpus.TIERS:
            assert _scenarios(tier), f"tier {tier} is empty"

    def test_every_scenario_described(self):
        # A docstring and exactly one tier marker per scenario, so the
        # ``-m <tier>`` selections partition the corpus.
        for name, fn in _scenarios().items():
            assert fn.__doc__, name
            assert len(_tiers(fn)) == 1, f"{name}: {_tiers(fn)}"


class TestRunner:
    def test_campaign_is_deterministic(self, tmp_path):
        def statuses(run_dir):
            return [(name, _replay(name, fn, run_dir / name)[0])
                    for name, fn in _scenarios("edge").items()]

        first = statuses(tmp_path / "a")
        assert first == statuses(tmp_path / "b")
        assert {status for _, status in first} == {"PASS"}

    def test_single_scenario_replay(self, tmp_path):
        name, fn = next(iter(_scenarios("smoke").items()))
        first = _replay(name, fn, tmp_path / "x")
        second = _replay(name, fn, tmp_path / "y")
        assert first == second == ("PASS", "")
        x, y = make_ctx(name, tmp_path / "x"), make_ctx(name, tmp_path / "y")
        assert x.seed == y.seed
        assert x.rng.random() == y.rng.random()

    def test_failing_scenario_is_graded_not_raised(self, tmp_path):
        def explode(ctx):
            with expect_error(ConfigError):
                raise ZeroDivisionError("boom")

        status, note = _replay("explode", explode, tmp_path)
        assert status == "FAIL"
        assert "ZeroDivisionError" in note

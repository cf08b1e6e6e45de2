"""The grading helpers' outcome matrix and the ``ctx`` fixture."""

from __future__ import annotations

import random
import warnings
import zlib

import pytest

from repro.errors import ConfigError, NetlistError
from tests.assault.grading import assert_clean, expect_error

FAILED = pytest.fail.Exception


@pytest.fixture
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestGradeErrorExpectation:
    def test_expected_typed_error_passes(self, no_warnings):
        with expect_error(NetlistError):
            raise NetlistError("bad r", element="r1")

    def test_wrong_typed_error_warns(self):
        with pytest.warns(UserWarning,
                          match="typed but unexpected ConfigError"):
            with expect_error(NetlistError):
                raise ConfigError("bad field", field="x")

    def test_untyped_error_fails(self):
        with pytest.raises(FAILED, match="unhandled KeyError"):
            with expect_error(NetlistError):
                raise KeyError("raw")

    def test_silent_acceptance_fails(self):
        with pytest.raises(FAILED, match="accepted silently .expected "
                                         "NetlistError/ConfigError"):
            with expect_error(NetlistError, ConfigError):
                pass

    def test_expect_error_requires_types(self):
        with pytest.raises(ValueError, match="at least one"):
            with expect_error():
                pass  # pragma: no cover


class TestGradeCleanExpectation:
    def test_check_true_passes(self, no_warnings):
        assert_clean(lambda obs: obs["x"] == 1, {"x": 1})

    def test_check_string_warns_with_note(self):
        with pytest.warns(UserWarning, match="^degraded but alive$"):
            assert_clean(lambda obs: "degraded but alive", {})

    def test_check_false_fails(self):
        with pytest.raises(FAILED, match="degradation contract violated"):
            assert_clean(lambda obs: False, {})
        # Only ``True`` passes: a merely truthy verdict is no verdict.
        with pytest.raises(FAILED, match="degradation contract violated"):
            assert_clean(lambda obs: 1, {})

    def test_check_raising_fails(self):
        with pytest.raises(FAILED, match="check raised KeyError"):
            assert_clean(lambda obs: obs["missing"], {})


class TestScenarioContext:
    def test_sandboxes_are_isolated(self, ctx, tmp_path):
        # Each scenario's cache and ledger live under its own tmp_path.
        assert ctx.cache.root.is_relative_to(tmp_path)
        assert ctx.ledger.runs_dir.is_relative_to(tmp_path)
        ctx.cache.put("k", 1)
        assert ctx.cache.get("k", None) == 1

    def test_seeded_rng_replays(self, ctx):
        # The seed a default-seed (2023) campaign gave this name.
        seed = 2023 ^ zlib.crc32(b"seeded_rng_replays")
        assert ctx.seed == ctx.chaos.seed == seed
        assert ctx.rng.random() == random.Random(seed ^ 0x5EED).random()

"""Parallel library builds: equivalence, caching, and the API shim."""

from __future__ import annotations

import pytest

from repro.cells import CharacterizationConfig, TechModels, build_library
from repro.cells.catalog import full_catalog
from repro.device import golden_nfet, golden_pfet


@pytest.fixture(scope="module")
def models():
    return TechModels(golden_nfet(), golden_pfet())


@pytest.fixture(scope="module")
def config():
    return CharacterizationConfig(engine="analytic")


class TestSerialParallelEquivalence:
    def test_jobs4_matches_serial(self, models, config):
        serial = build_library(models, config, jobs=1)
        parallel = build_library(models, config, jobs=4)
        assert sorted(parallel.cells) == sorted(serial.cells)
        for name, cell in serial.cells.items():
            twin = parallel.cells[name]
            assert len(twin.arcs) == len(cell.arcs)
            for arc, twin_arc in zip(cell.arcs, twin.arcs):
                assert twin_arc.related_pin == arc.related_pin
                assert (twin_arc.cell_rise.values.tolist()
                        == arc.cell_rise.values.tolist())
                assert (twin_arc.cell_fall.values.tolist()
                        == arc.cell_fall.values.tolist())
            assert twin.leakage_avg == cell.leakage_avg
        assert parallel.coverage.quarantined == serial.coverage.quarantined
        assert parallel.coverage.degraded == serial.coverage.degraded
        assert sorted(parallel.coverage.clean) == sorted(
            serial.coverage.clean)

    def test_summary_carries_config_digest(self, models, config):
        lib = build_library(models, config, jobs=1)
        summary = lib.summary()
        assert summary["config_digest"] == config.config_digest()


class TestDiskCache:
    def test_rebuild_hits_cache(self, models, config, tmp_path,
                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = build_library(models, config)
        # Second build with identical inputs must come from disk: same
        # results without re-characterizing.
        calls = {"n": 0}
        from repro.cells import characterize as char_mod

        original = char_mod.CellCharacterizer.characterize

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(char_mod.CellCharacterizer, "characterize",
                            counting)
        # jobs=1: the counter sees only calls made in this process.
        second = build_library(models, config, jobs=1)
        assert calls["n"] == 0
        assert sorted(second.cells) == sorted(first.cells)

    def test_config_change_misses_cache(self, models, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        build_library(models, CharacterizationConfig(engine="analytic"))
        changed = CharacterizationConfig(engine="analytic",
                                         temperature_k=77.0)
        calls = {"n": 0}
        from repro.cells import characterize as char_mod

        original = char_mod.CellCharacterizer.characterize

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(char_mod.CellCharacterizer, "characterize",
                            counting)
        build_library(models, changed, jobs=1)
        assert calls["n"] > 0

    def test_cache_disabled_without_env(self, models, config, monkeypatch,
                                        tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        build_library(models, config)
        assert not list(tmp_path.iterdir())


class TestDeprecationShim:
    def test_positional_extras_warn(self, models, config):
        """The positional catalog form is gone: extras raise."""
        with pytest.raises(TypeError):
            build_library(models, config, full_catalog()[:3])

    def test_keyword_form_does_not_warn(self, models, config,
                                        recwarn):
        build_library(models, config, catalog=full_catalog()[:3])
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_too_many_positionals_rejected(self, models, config):
        with pytest.raises(TypeError):
            build_library(models, config, None, "name", False, "extra")

"""On-disk result cache: hits, misses, invalidation, opt-in."""

from __future__ import annotations

from repro.runtime import ResultCache, env_cache, stable_digest

_MISS = object()


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="t")
        key = stable_digest({"config": 1})
        assert cache.get(key, _MISS) is _MISS
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}

    def test_contains(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="t")
        key = stable_digest("x")
        assert key not in cache
        cache.put(key, 1)
        assert key in cache

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="t")
        cache.put(stable_digest({"shots": 15}), "old")
        assert cache.get(stable_digest({"shots": 16}), _MISS) is _MISS

    def test_namespaces_isolated(self, tmp_path):
        key = stable_digest("shared")
        ResultCache(tmp_path, namespace="a").put(key, "a-value")
        assert ResultCache(tmp_path, namespace="b").get(key, _MISS) is _MISS

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="t")
        key = stable_digest("x")
        cache.put(key, [1, 2, 3])
        cache.path(key).write_bytes(b"not a pickle")
        assert cache.get(key, _MISS) is _MISS
        # The corrupt file was dropped; a fresh put works again.
        cache.put(key, [1, 2, 3])
        assert cache.get(key) == [1, 2, 3]

    def test_prune(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="t")
        for i in range(3):
            cache.put(stable_digest(i), i)
        assert cache.prune() == 3
        assert stable_digest(0) not in cache

    def test_prune_removes_orphaned_temp_files(self, tmp_path):
        # A writer killed before os.replace leaves <key>.v2.pkl.tmp<pid>.
        cache = ResultCache(tmp_path, namespace="t")
        cache.put(stable_digest("k1"), 1)
        orphan = cache.path(stable_digest("k2")).with_suffix(".pkl.tmp999")
        orphan.write_bytes(b"half-written")
        assert cache.prune() == 1
        assert not any((tmp_path / "t").iterdir())

    def test_unwritable_root_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("occupied")
        cache = ResultCache(blocker / "sub", namespace="t")
        cache.put(stable_digest("x"), 1)  # must not raise
        assert cache.get(stable_digest("x"), _MISS) is _MISS


class TestOptIn:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert env_cache("t") is None

    def test_env_var_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = env_cache("t")
        assert cache.root == tmp_path
        assert cache.namespace == "t"

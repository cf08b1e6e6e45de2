"""Content-addressed on-disk result cache.

Repeat runs of the flow redo identical work: every ``repro all``
rebuilds the same two libraries from the same configs, every seeded
campaign re-runs the same injections.  This cache closes that loop --
results are stored under a key that *is* a digest of everything that
produced them (:func:`repro.runtime.digest.stable_digest` over the
config dataclasses and companion inputs), so

* a hit is trustworthy by construction: any input change changes the
  key and misses;
* no invalidation protocol is needed: stale entries are simply never
  addressed again (``prune()`` reclaims the disk).

Layout: ``<root>/<namespace>/<key><suffix>``, one pickle per entry,
written atomically (tmp file + ``os.replace``) so a crashed or
concurrent writer can never leave a torn entry.  Caching is *opt-in*:
stages ask :func:`env_cache` for their store, which exists only when
``REPRO_CACHE_DIR`` is set and is rooted there (tests monkeypatch
engines, so silently serving yesterday's results by default would be a
correctness hazard).

Integrity: every entry ends with a fixed-size footer (magic, payload
length, CRC32 over the payload).  ``get``/``__contains__`` verify the
footer *before* ``pickle.load`` runs, so a truncated or bit-flipped
entry is detected and dropped as a miss instead of feeding the
unpickler garbage -- and membership is consistent with readability: a
key is ``in`` the cache exactly when ``get`` would return its value.
"""

from __future__ import annotations

import logging
import os
import pickle
import struct
import zlib
from pathlib import Path

from repro import telemetry

__all__ = ["ResultCache", "env_cache"]

_LOG = logging.getLogger(__name__)

#: Bump to orphan every existing entry after a format change.
#: v2: appended the integrity footer (magic + length + CRC32).
CACHE_VERSION = 2

#: Entry trailer: payload || pack(magic, payload length, crc32(payload)).
_FOOTER = struct.Struct("<4sQI")
_MAGIC = b"RPRC"

_SENTINEL = object()


class ResultCache:
    """Pickle-per-entry content-addressed store; see module docstring."""

    def __init__(self, root: str | os.PathLike, namespace: str = "default"):
        self.root = Path(root)
        self.namespace = namespace

    # -------------------------------------------------------------- #
    def path(self, key: str) -> Path:
        return self.root / self.namespace / f"{key}.v{CACHE_VERSION}.pkl"

    def _read_verified(self, path: Path) -> bytes | None:
        """The entry's pickle payload, or ``None`` if the file fails
        its integrity footer (truncated, bit-flipped, or pre-footer).

        Raises ``OSError`` subclasses for I/O-level misses (no file);
        callers map those to plain misses.
        """
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < _FOOTER.size:
            return None
        payload, footer = blob[:-_FOOTER.size], blob[-_FOOTER.size:]
        magic, length, crc = _FOOTER.unpack(footer)
        if magic != _MAGIC or length != len(payload) \
                or crc != zlib.crc32(payload):
            return None
        return payload

    def _drop_corrupt(self, path: Path, reason: str) -> None:
        _LOG.warning("dropping unreadable cache entry %s (%s)", path, reason)
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass
        telemetry.count(f"runtime.cache_corrupt.{self.namespace}")

    def get(self, key: str, default=None):
        """The cached value, or ``default`` on miss/corruption.

        A corrupt or unreadable entry counts as a miss and is removed;
        the cache never raises into the flow.
        """
        path = self.path(key)
        try:
            payload = self._read_verified(path)
        except (FileNotFoundError, NotADirectoryError):
            telemetry.count(f"runtime.cache_miss.{self.namespace}")
            return default
        except OSError as exc:
            self._drop_corrupt(path, f"{type(exc).__name__}: {exc}")
            telemetry.count(f"runtime.cache_miss.{self.namespace}")
            return default
        if payload is None:
            self._drop_corrupt(path, "integrity footer mismatch")
            telemetry.count(f"runtime.cache_miss.{self.namespace}")
            return default
        try:
            value = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 - treat as miss
            # Intact bytes but no longer loadable (e.g. a class moved);
            # same contract as corruption: drop, miss, never raise.
            self._drop_corrupt(path, f"{type(exc).__name__}: {exc}")
            telemetry.count(f"runtime.cache_miss.{self.namespace}")
            return default
        telemetry.count(f"runtime.cache_hit.{self.namespace}")
        return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` atomically; best-effort.

        A full disk or read-only cache dir degrades to "no cache", not
        to a failed run.
        """
        path = self.path(key)
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            footer = _FOOTER.pack(_MAGIC, len(payload), zlib.crc32(payload))
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(payload)
                fh.write(footer)
            os.replace(tmp, path)
        except OSError as exc:
            _LOG.warning("cache write failed for %s (%s); continuing "
                         "uncached", path, exc)
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
        else:
            telemetry.count(f"runtime.cache_write.{self.namespace}")

    def __contains__(self, key: str) -> bool:
        """Membership is *readability*: True iff ``get`` would hit.

        A poisoned (truncated/bit-flipped) entry therefore can never
        count as a hit; the integrity footer makes the check cheap
        (one CRC pass, no unpickling).
        """
        try:
            return self._read_verified(self.path(key)) is not None
        except OSError:
            return False

    # -------------------------------------------------------------- #
    def prune(self) -> int:
        """Delete every entry in this namespace; returns the count.

        Temp files a writer left behind when it died before
        ``os.replace`` go too, uncounted: they were never entries.
        """
        removed = 0
        directory = self.root / self.namespace
        if directory.is_dir():
            for entry in directory.glob("*.pkl"):
                entry.unlink(missing_ok=True)
                removed += 1
            for orphan in directory.glob("*.pkl.tmp*"):
                orphan.unlink(missing_ok=True)
        return removed


def env_cache(namespace: str) -> ResultCache | None:
    """The ``namespace`` store under ``REPRO_CACHE_DIR``, or ``None``
    when the variable is unset -- set it to cache a whole run without
    touching any call site."""
    root = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return ResultCache(Path(root).expanduser(), namespace) if root else None

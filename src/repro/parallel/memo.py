"""Process-safe, content-addressed on-disk store for simulation results.

Layout mirrors :class:`repro.instrument.database.PerformanceDatabase`'s
defensive posture — checksum on write, verify on read, purge on corruption
— but the unit here is one memoized simulation payload, named by the
SHA-256 digest of its :mod:`repro.parallel.keys` description:

    <root>/<digest[:2]>/<digest>.json

Each file wraps the payload with the schema version, the full key (so a
digest collision or stale file is detected by comparison, not trusted),
and a CRC-32 checksum of the canonical payload JSON. Writes go through a
unique temp file + :func:`os.replace`, which is atomic on POSIX, so
concurrent workers racing on the same digest simply last-write-wins with
identical bytes (REP001 determinism means equal keys produce equal
payloads). Any unreadable, mismatched, or checksum-failing entry is
deleted on sight and reported as a miss — the next simulation heals it.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import Any, Mapping, Optional

from repro import obs
from repro.parallel.keys import (
    SCHEMA_VERSION,
    canonical_json,
    digest_canonical,
)

__all__ = ["SimulationMemoStore"]


def _payload_checksum(payload: Any) -> int:
    return zlib.crc32(canonical_json(payload).encode("utf-8"))


class SimulationMemoStore:
    """Sharded-JSON memo store keyed by content digests.

    Thread-safe for in-process counters; cross-process safety comes from
    atomic ``os.replace`` writes plus verify-on-read, not file locks.
    """

    def __init__(self, root: str | os.PathLike[str]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._corruptions = 0

    # -- paths ------------------------------------------------------------

    def path_for(self, key: Mapping[str, Any]) -> Path:
        return self._path(canonical_json(dict(key)))

    def _path(self, canonical_key: str) -> Path:
        d = digest_canonical(canonical_key)
        return self.root / d[:2] / f"{d}.json"

    # -- read -------------------------------------------------------------

    def get(self, key: Mapping[str, Any]) -> Optional[Any]:
        """The memoized payload for ``key``, or None on miss.

        Every failure mode — missing file, unparsable JSON, schema or key
        mismatch, checksum failure — is a miss; corrupt files are removed
        so the store self-heals on the next :meth:`put`. The query key is
        serialised once: its canonical JSON names the file and is what the
        stored key must match.
        """
        canonical_key = canonical_json(dict(key))
        path = self._path(canonical_key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self._miss()
            return None
        except OSError:
            self._purge(path, "unreadable")
            return None
        try:
            wrapper = json.loads(raw)
            payload = wrapper["payload"]
            # Compare keys as canonical JSON: the stored key went through a
            # JSON round-trip (tuples became lists), the queried one didn't.
            ok = (
                wrapper["schema"] == SCHEMA_VERSION
                and canonical_json(wrapper["key"]) == canonical_key
                and wrapper["checksum"] == _payload_checksum(payload)
            )
        except (json.JSONDecodeError, KeyError, TypeError):
            self._purge(path, "unparsable")
            return None
        if not ok:
            self._purge(path, "verification failed")
            return None
        with self._lock:
            self._hits += 1
        obs.get_registry().counter("parallel_memo_hits").inc()
        return payload

    # -- write ------------------------------------------------------------

    def put(self, key: Mapping[str, Any], payload: Any) -> None:
        """Store ``payload`` under ``key`` atomically (last write wins)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        wrapper = {
            "schema": SCHEMA_VERSION,
            "key": dict(key),
            "checksum": _payload_checksum(payload),
            "payload": payload,
        }
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(
            json.dumps(wrapper, sort_keys=True, separators=(",", ":")),
            encoding="utf-8",
        )
        os.replace(tmp, path)
        with self._lock:
            self._stores += 1
        obs.get_registry().counter("parallel_memo_stores").inc()

    # -- stats ------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "corruptions": self._corruptions,
            }

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    # -- internals --------------------------------------------------------

    def _miss(self) -> None:
        with self._lock:
            self._misses += 1
        obs.get_registry().counter("parallel_memo_misses").inc()

    def _purge(self, path: Path, reason: str) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        with self._lock:
            self._corruptions += 1
            self._misses += 1
        obs.get_registry().counter("parallel_memo_corruption_detected").inc()
        obs.get_registry().counter("parallel_memo_misses").inc()
        obs.log("memo.corruption_detected", path=str(path), reason=reason)

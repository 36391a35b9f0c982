"""Process-safe, content-addressed on-disk store for simulation results.

The one persistent result store: campaigns, pipelines and the serving
engine all archive through it. The unit is one memoized simulation
payload, named by the SHA-256 digest of its :mod:`repro.parallel.keys`
description:

    <root>/<digest[:2]>/<digest>.json

Each file wraps the payload with the schema version, the full key (so a
digest collision or stale file is detected by comparison, not trusted),
and a CRC-32 checksum of the canonical payload JSON. :meth:`put` writes a
unique temp file and :func:`os.replace`\\ s it into place (atomic on POSIX;
equal keys carry equal payloads by REP001 determinism, so racing writers
last-write-win with identical bytes). :meth:`put_if_absent` links the temp
file onto the final path instead, which fails if the path exists: the
first writer wins and every later writer gets the winner's payload back.
Any unreadable, mismatched, or checksum-failing entry is deleted on sight,
counted once in ``cache_corruption_detected`` and reported as a miss —
the next simulation heals it.

The ``db.read.corrupt`` and ``db.write.corrupt`` fault sites corrupt a
payload on its way off or onto disk while the pristine checksum stays,
so injected corruption is always caught by the read that meets it.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import Any, Mapping, Optional

from repro import faults, obs
from repro.parallel.keys import (
    SCHEMA_VERSION,
    canonical_json,
    digest_canonical,
)

__all__ = ["SimulationMemoStore", "TAMPER"]

#: The number the ``db.*.corrupt`` fault sites plant in a payload; a
#: served value carrying it means corruption escaped detection.
TAMPER = 666333.0


def _payload_checksum(payload: Any) -> int:
    return zlib.crc32(canonical_json(payload).encode("utf-8"))


def _tamper(value: Any) -> Any:
    """Deterministic corruption: every number in ``value`` becomes TAMPER."""
    if isinstance(value, dict):
        return {k: _tamper(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_tamper(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return TAMPER
    return value


class SimulationMemoStore:
    """Sharded-JSON memo store keyed by content digests.

    Thread-safe for in-process counters; cross-process safety comes from
    atomic ``os.replace`` / ``os.link`` writes plus verify-on-read, not
    file locks.
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
        so the store self-heals on the next write. The query key is
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
            if faults.check("db.read.corrupt") is not None:
                payload = _tamper(payload)
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
        os.replace(self._staged(path, key, payload), path)
        self._stored()

    def put_if_absent(self, key: Mapping[str, Any], payload: Any) -> Any:
        """Store ``payload`` unless ``key`` holds a record; the winner's payload.

        The write links a staged file onto the final path, which fails
        when the path exists, so of any number of racing writers (threads
        or processes) exactly one creates the record and all of them
        return its payload. A corrupt incumbent is purged by the read-back
        and the link retried; should every attempt meet a fresh corrupt
        record, the caller's own payload is returned unstored.
        """
        path = self.path_for(key)
        for _attempt in range(3):
            staged = self._staged(path, key, payload)
            try:
                os.link(staged, path)
            except FileExistsError:
                pass
            else:
                self._stored()
                return payload
            finally:
                staged.unlink()
            stored = self.get(key)
            if stored is not None:
                return stored
        return payload

    def _staged(self, path: Path, key: Mapping[str, Any], payload: Any) -> Path:
        """A temp file beside ``path`` holding the record for ``payload``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        checksum = _payload_checksum(payload)
        # Write-corruption fault: the payload rots on its way to disk while
        # the checksum (computed from the pristine data) stays honest, so
        # the corruption is detectable on the next read.
        if faults.check("db.write.corrupt") is not None:
            payload = _tamper(payload)
        wrapper = {
            "schema": SCHEMA_VERSION,
            "key": dict(key),
            "checksum": checksum,
            "payload": payload,
        }
        staged = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        staged.write_text(
            json.dumps(wrapper, sort_keys=True, separators=(",", ":")),
            encoding="utf-8",
        )
        return staged

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

    def _stored(self) -> None:
        with self._lock:
            self._stores += 1
        obs.get_registry().counter("parallel_memo_stores").inc()

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
        obs.get_registry().counter("cache_corruption_detected").inc()
        obs.get_registry().counter("parallel_memo_misses").inc()
        obs.log("memo.corruption_detected", path=str(path), reason=reason)

"""Process-safe, content-addressed on-disk store for simulation results.

The one persistent result store: campaigns, pipelines and the serving
engine all archive through it. The unit is one memoized simulation
payload, named by the SHA-256 digest of its :mod:`repro.parallel.keys`
description:

    <root>/<digest[:2]>/<digest>.json

Each file wraps the payload with the schema version, the full key (so a
digest collision or stale file is detected by comparison, not trusted),
and a CRC-32 checksum of the stored payload bytes, as the canonical JSON
object ``{"checksum","key","payload","schema"}``. :func:`_record` is that
layout for both sides. Every method takes the key's canonical text from
:func:`~repro.parallel.keys.key_text`: a builder-made
:class:`~repro.parallel.keys.MemoKey` carries it, and a plain mapping is
rendered there once. A write renders only the payload, and a read
verifies the file's raw text against the key's text, so the schema, the
key and the checksum are compared byte for byte and only the payload is
parsed: a hit on a builder-made key is one file read and one
``json.loads``. A record reformatted by hand (whitespace, key order) is
therefore a miss, purged like any corrupt entry.

:meth:`put` writes a unique temp file and :func:`os.replace`\\ s it into
place (atomic on POSIX; equal keys carry equal payloads by REP001
determinism, so racing writers last-write-win with identical bytes).
:meth:`put_if_absent` links the temp file onto the final path instead,
which fails if the path exists: the first writer wins and every later
writer gets the winner's payload back. Any unreadable, mismatched, or
checksum-failing entry is deleted on sight, counted once in
``cache_corruption_detected`` and reported as a miss — the next
simulation heals it.

The ``db.read.corrupt`` and ``db.write.corrupt`` fault sites corrupt a
payload on its way off or onto disk while the pristine checksum stays
(a read re-renders the tampered payload before taking its checksum), so
injected corruption is always caught by the read that meets it.

A store opened without a root lives in a private temporary directory:
:meth:`SimulationMemoStore.close` removes it, and so does a finalizer
when the store is collected or the interpreter exits. Only the process
that made the directory removes it, so a forked pool worker that
inherits the store never deletes its parent's records.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import weakref
import zlib
from pathlib import Path
from typing import Any, Mapping, Optional

from repro import faults, obs
from repro.parallel.keys import (
    SCHEMA_VERSION,
    canonical_json,
    digest_canonical,
    key_text,
)

__all__ = ["SimulationMemoStore", "TAMPER"]

#: The number the ``db.*.corrupt`` fault sites plant in a payload; a
#: served value carrying it means corruption escaped detection.
TAMPER = 666333.0

_KEY_FIELD = b',"key":'
_PAYLOAD_FIELD = b',"payload":'
_SCHEMA_FIELD = b',"schema":%d}' % SCHEMA_VERSION

_HITS = obs.DefaultCounter("parallel_memo_hits")
_MISSES = obs.DefaultCounter("parallel_memo_misses")
_STORES = obs.DefaultCounter("parallel_memo_stores")
_CORRUPTIONS = obs.DefaultCounter("cache_corruption_detected")


def _record(canonical_key: bytes, checksum: int, payload: bytes) -> bytes:
    """A memo file's bytes: the one record layout, for reads and writes.

    ``canonical_key`` and ``payload`` are already canonical JSON (ASCII,
    since ``canonical_json`` escapes everything else), so this equals
    ``canonical_json({"checksum": checksum, "key": key, "payload": ...,
    "schema": SCHEMA_VERSION})`` without rendering either of them again.
    """
    return b'{"checksum":%d%s%s%s%s%s' % (
        checksum, _KEY_FIELD, canonical_key, _PAYLOAD_FIELD, payload,
        _SCHEMA_FIELD,
    )


def _tamper(value: Any) -> Any:
    """Deterministic corruption: every number in ``value`` becomes TAMPER."""
    if isinstance(value, dict):
        return {k: _tamper(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_tamper(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return TAMPER
    return value


def _rendered(value: Any) -> bytes:
    return canonical_json(value).encode("ascii")


def _remove_private(root: str, owner_pid: int) -> None:
    """Remove a private store directory, in the process that made it only."""
    if os.getpid() == owner_pid:
        shutil.rmtree(root, ignore_errors=True)


class SimulationMemoStore:
    """Sharded-JSON memo store keyed by content digests.

    Thread-safe for in-process counters; cross-process safety comes from
    atomic ``os.replace`` / ``os.link`` writes plus verify-on-read, not
    file locks. Without ``root`` the store is private (see the module
    docstring); a given ``root`` is created if absent and never removed.
    """

    def __init__(self, root: str | os.PathLike[str] | None = None):
        self._finalizer: Optional[weakref.finalize] = None
        if root is None:
            root = tempfile.mkdtemp(prefix="repro-memo-")
            self._finalizer = weakref.finalize(
                self, _remove_private, root, os.getpid()
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = str(self.root)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._corruptions = 0

    # -- paths ------------------------------------------------------------

    def path_for(self, key: Mapping[str, Any]) -> Path:
        return Path(self._path(key_text(key)))

    def _path(self, canonical_key: str) -> str:
        d = digest_canonical(canonical_key)
        return os.path.join(self._root, d[:2], f"{d}.json")

    # -- read -------------------------------------------------------------

    def get(self, key: Mapping[str, Any]) -> Optional[Any]:
        """The memoized payload for ``key``, or None on miss.

        Every failure mode — missing file, unparsable JSON, schema or key
        mismatch, checksum failure — is a miss; corrupt files are removed
        so the store self-heals on the next write. A hit takes the key's
        canonical text (it names the file and must appear in it verbatim),
        reads the file once and parses only the payload.
        """
        canonical_key = key_text(key)
        path = self._path(canonical_key)
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            self._miss()
            return None
        except OSError:
            self._purge(path, "unreadable")
            return None
        encoded_key = canonical_key.encode("ascii")
        # The payload lies between the query key and the schema; in a file
        # laid out any other way the slice is wrong and the comparison
        # with the record rebuilt from it fails.
        start = (
            raw.find(_KEY_FIELD) + len(_KEY_FIELD) + len(encoded_key)
            + len(_PAYLOAD_FIELD)
        )
        payload = raw[start:len(raw) - len(_SCHEMA_FIELD)]
        try:
            if faults.check("db.read.corrupt") is not None:
                payload = _rendered(_tamper(json.loads(payload)))
            checksum = zlib.crc32(payload)
            if raw != _record(encoded_key, checksum, payload):
                self._purge(path, "verification failed")
                return None
            value = json.loads(payload)
        except ValueError:
            self._purge(path, "unparsable")
            return None
        with self._lock:
            self._hits += 1
        _HITS.inc()
        return value

    # -- write ------------------------------------------------------------

    def put(self, key: Mapping[str, Any], payload: Any) -> None:
        """Store ``payload`` under ``key`` atomically (last write wins)."""
        canonical_key = key_text(key)
        path = self._path(canonical_key)
        staged = self._staged(path, canonical_key, payload, _rendered(payload))
        os.replace(staged, path)
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
        canonical_key = key_text(key)
        path = self._path(canonical_key)
        rendered = _rendered(payload)
        for _attempt in range(3):
            staged = self._staged(path, canonical_key, payload, rendered)
            try:
                os.link(staged, path)
            except FileExistsError:
                pass
            else:
                self._stored()
                return payload
            finally:
                os.unlink(staged)
            stored = self.get(key)
            if stored is not None:
                return stored
        return payload

    def _staged(
        self, path: str, canonical_key: str, payload: Any, rendered: bytes
    ) -> str:
        """A temp file beside ``path`` holding the record for ``payload``."""
        directory, name = os.path.split(path)
        os.makedirs(directory, exist_ok=True)
        checksum = zlib.crc32(rendered)
        # Write-corruption fault: the payload rots on its way to disk while
        # the checksum (computed from the pristine data) stays honest, so
        # the corruption is detectable on the next read.
        if faults.check("db.write.corrupt") is not None:
            rendered = _rendered(_tamper(payload))
        staged = os.path.join(
            directory, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        record = _record(canonical_key.encode("ascii"), checksum, rendered)
        with open(staged, "wb") as f:
            f.write(record)
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

    def absorb(self, stats: Mapping[str, int]) -> None:
        """Add another handle's :meth:`stats` (a cell's own store) to these."""
        with self._lock:
            self._hits += stats["hits"]
            self._misses += stats["misses"]
            self._stores += stats["stores"]
            self._corruptions += stats["corruptions"]

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Remove the directory if it is private; a given root stays."""
        if self._finalizer is not None:
            self._finalizer()

    # -- internals --------------------------------------------------------

    def _stored(self) -> None:
        with self._lock:
            self._stores += 1
        _STORES.inc()

    def _miss(self) -> None:
        with self._lock:
            self._misses += 1
        _MISSES.inc()

    def _purge(self, path: str, reason: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
        with self._lock:
            self._corruptions += 1
            self._misses += 1
        _CORRUPTIONS.inc()
        _MISSES.inc()
        obs.log("memo.corruption_detected", path=path, reason=reason)

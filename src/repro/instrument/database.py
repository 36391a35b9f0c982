"""Prophesy-style performance database.

The paper's companion system, Prophesy [TG01], archives kernel-level
measurements so models can be built without re-running experiments. This is
a small sqlite-backed equivalent: measurements are keyed by (benchmark,
class, nprocs, kernel chain) and store the sample vector, so coupling sets
and predictors can be reconstructed offline.

The database is safe for concurrent use from multiple threads (the serving
layer in :mod:`repro.service` reads it from every request thread and
writes it from a worker pool): all threads share one connection behind a
lock, so a server with one thread per client connection still holds a
single sqlite handle, and :meth:`store_if_absent` /
:meth:`get_or_measure` are free of check-then-insert races (``INSERT OR
IGNORE`` followed by a re-read decides the winner).

Replaying a whole cell (the serving engine's store rung) reads it with
:meth:`PerformanceDatabase.read_cell`: one query for every row of the
cell, each row still checksum-verified on use.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import zlib
from typing import Callable, Iterator, Optional

from repro import faults
from repro.errors import MeasurementError
from repro.instrument.runner import Measurement

__all__ = ["CellRows", "PerformanceDatabase", "payload_checksum"]

#: One cell's archived rows (:meth:`PerformanceDatabase.read_cell`): kernel
#: chain in, its verified measurement (or None) out.
CellRows = Callable[[tuple[str, ...]], Optional[Measurement]]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS measurements (
    id INTEGER PRIMARY KEY,
    benchmark TEXT NOT NULL,
    problem_class TEXT NOT NULL,
    nprocs INTEGER NOT NULL,
    kernels TEXT NOT NULL,          -- JSON list, control-flow order
    samples TEXT NOT NULL,          -- JSON list of per-iteration seconds
    overhead REAL NOT NULL,
    checksum TEXT,                  -- crc32 of samples|overhead (NULL = legacy)
    UNIQUE (benchmark, problem_class, nprocs, kernels)
);
"""


def payload_checksum(samples_json: str, overhead: float) -> str:
    """Integrity checksum of one stored measurement payload.

    crc32 over the canonical JSON sample vector plus the overhead — enough
    to catch bit-rot / partial writes; not a cryptographic signature.
    """
    return format(
        zlib.crc32(f"{samples_json}|{overhead!r}".encode("utf-8")), "08x"
    )


def _tamper(samples_json: str) -> str:
    """Deterministic payload corruption used by the db.* fault sites."""
    return samples_json.replace("[", "[666333.0, ", 1)


class PerformanceDatabase:
    """Store and retrieve :class:`Measurement` records.

    Use ``":memory:"`` (the default) for ephemeral runs or a file path to
    persist across processes. The database is also a memoization layer:
    :meth:`get_or_measure` only runs the harness on a miss.
    """

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._lock = threading.RLock()
        self._closed = False
        # One connection for every thread: each statement already runs
        # under the lock, so per-thread connections would buy no
        # concurrency, only one open handle per thread that ever read.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        conn = self._connection()
        with self._lock:
            conn.execute(_SCHEMA)
            # Legacy databases predate the checksum column; add it in place
            # (NULL checksums are accepted as unverifiable legacy rows).
            columns = {
                row[1]
                for row in conn.execute("PRAGMA table_info(measurements)")
            }
            if "checksum" not in columns:
                conn.execute(
                    "ALTER TABLE measurements ADD COLUMN checksum TEXT"
                )
            conn.commit()

    def _connection(self) -> sqlite3.Connection:
        if self._closed:
            raise MeasurementError("performance database is closed")
        return self._conn

    def close(self) -> None:
        """Close the database's connection."""
        with self._lock:
            self._closed = True
            self._conn.close()

    def __enter__(self) -> "PerformanceDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- write ---------------------------------------------------------------

    @staticmethod
    def _row(measurement: Measurement) -> tuple:
        samples_json = json.dumps(list(measurement.samples))
        checksum = payload_checksum(samples_json, measurement.overhead)
        # Write-corruption fault: the payload rots on its way to disk while
        # the checksum (computed from the pristine data) stays honest, so
        # the corruption is *detectable* on the next read.
        if faults.check("db.write.corrupt") is not None:
            samples_json = _tamper(samples_json)
        return (
            measurement.benchmark,
            measurement.problem_class,
            measurement.nprocs,
            json.dumps(list(measurement.kernels)),
            samples_json,
            measurement.overhead,
            checksum,
        )

    def store(self, measurement: Measurement, replace: bool = False) -> None:
        """Insert a measurement; duplicates error unless ``replace``."""
        verb = "INSERT OR REPLACE" if replace else "INSERT"
        with self._lock:
            conn = self._connection()
            try:
                conn.execute(
                    f"{verb} INTO measurements "
                    "(benchmark, problem_class, nprocs, kernels, samples, "
                    "overhead, checksum) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    self._row(measurement),
                )
            except sqlite3.IntegrityError as exc:
                raise MeasurementError(
                    f"measurement {measurement.key} already stored"
                ) from exc
            conn.commit()

    def store_if_absent(self, measurement: Measurement) -> Measurement:
        """Race-free idempotent insert; returns the winning record.

        ``INSERT OR IGNORE`` then re-read: whichever concurrent writer got
        there first wins, and every caller sees that winner — the pattern
        the serving layer's workers rely on. A corrupted winner (checksum
        mismatch, see :meth:`get`) is purged and the insert retried, so one
        bout of write corruption plus one corrupted read-back self-heal.
        The loop holds the database lock: a concurrent writer of the same
        key must not purge the row this call is verifying.
        """
        with self._lock:
            for _attempt in range(3):
                conn = self._connection()
                conn.execute(
                    "INSERT OR IGNORE INTO measurements "
                    "(benchmark, problem_class, nprocs, kernels, samples, "
                    "overhead, checksum) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    self._row(measurement),
                )
                conn.commit()
                stored = self.get(
                    measurement.benchmark,
                    measurement.problem_class,
                    measurement.nprocs,
                    measurement.kernels,
                )
                if stored is not None:
                    return stored
        raise MeasurementError(
            f"measurement {measurement.key} failed integrity verification "
            "after retry (persistent corruption)"
        )

    # -- read ----------------------------------------------------------------

    def get(
        self,
        benchmark: str,
        problem_class: str,
        nprocs: int,
        kernels: tuple[str, ...],
    ) -> Optional[Measurement]:
        """Fetch one measurement, or None.

        Rows are verified against their stored checksum: a mismatch (disk
        bit-rot, a torn write, or an injected ``db.*.corrupt`` fault) is
        counted as ``cache_corruption_detected``, the bad row is purged,
        and the call reports a miss — so corrupted payloads are re-measured
        instead of silently poisoning predictions. Legacy rows without a
        checksum are accepted as-is.
        """
        kernels_json = json.dumps(list(kernels))
        with self._lock:
            row = self._connection().execute(
                "SELECT samples, overhead, checksum FROM measurements WHERE "
                "benchmark=? AND problem_class=? AND nprocs=? AND kernels=?",
                (benchmark, problem_class, nprocs, kernels_json),
            ).fetchone()
        if row is None:
            return None
        return self._verified(
            benchmark, problem_class, nprocs, kernels, kernels_json, row
        )

    def read_cell(
        self, benchmark: str, problem_class: str, nprocs: int
    ) -> CellRows:
        """Every row of one cell from a single query, as a lookup.

        The first lookup snapshots all of the cell's rows with one
        ``SELECT`` (served by the ``UNIQUE`` index prefix); every lookup
        then verifies only the row it asks for, exactly as :meth:`get`
        would (same fault checkpoint, checksum compare and purge). A
        replay that stops at its first missing or corrupt row therefore
        verifies the same rows as one :meth:`get` per row, and one that
        never looks anything up never touches sqlite.
        """
        snapshot: Optional[dict[str, tuple]] = None

        def lookup(kernels: tuple[str, ...]) -> Optional[Measurement]:
            nonlocal snapshot
            if snapshot is None:
                with self._lock:
                    rows = self._connection().execute(
                        "SELECT kernels, samples, overhead, checksum "
                        "FROM measurements WHERE "
                        "benchmark=? AND problem_class=? AND nprocs=?",
                        (benchmark, problem_class, nprocs),
                    ).fetchall()
                snapshot = {key: tuple(payload) for key, *payload in rows}
            kernels_json = json.dumps(list(kernels))
            row = snapshot.get(kernels_json)
            if row is None:
                return None
            return self._verified(
                benchmark, problem_class, nprocs, kernels, kernels_json, row
            )

        return lookup

    def _verified(
        self,
        benchmark: str,
        problem_class: str,
        nprocs: int,
        kernels: tuple[str, ...],
        kernels_json: str,
        row: tuple,
    ) -> Optional[Measurement]:
        """The measurement in one fetched row, or None once purged corrupt."""
        samples, overhead, checksum = row
        if faults.check("db.read.corrupt") is not None:
            samples = _tamper(samples)
        if checksum is not None and payload_checksum(samples, overhead) != checksum:
            self._purge_corrupt(benchmark, problem_class, nprocs, kernels_json)
            return None
        return Measurement(
            benchmark=benchmark,
            problem_class=problem_class,
            nprocs=nprocs,
            kernels=tuple(kernels),
            samples=tuple(json.loads(samples)),
            overhead=overhead,
        )

    def _purge_corrupt(
        self, benchmark: str, problem_class: str, nprocs: int, kernels_json: str
    ) -> None:
        """Drop a row that failed verification and account for it."""
        from repro import obs

        with self._lock:
            conn = self._connection()
            conn.execute(
                "DELETE FROM measurements WHERE benchmark=? AND "
                "problem_class=? AND nprocs=? AND kernels=?",
                (benchmark, problem_class, nprocs, kernels_json),
            )
            conn.commit()
        obs.get_registry().counter("cache_corruption_detected").inc()
        obs.log(
            "db.corruption_detected",
            benchmark=benchmark,
            problem_class=problem_class,
            nprocs=nprocs,
            kernels=kernels_json,
        )

    def __iter__(self) -> Iterator[Measurement]:
        with self._lock:
            rows = self._connection().execute(
                "SELECT benchmark, problem_class, nprocs, kernels, samples, overhead "
                "FROM measurements ORDER BY id"
            ).fetchall()
        for bench, cls, nprocs, kernels, samples, overhead in rows:
            yield Measurement(
                benchmark=bench,
                problem_class=cls,
                nprocs=nprocs,
                kernels=tuple(json.loads(kernels)),
                samples=tuple(json.loads(samples)),
                overhead=overhead,
            )

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._connection().execute(
                "SELECT COUNT(*) FROM measurements"
            ).fetchone()
        return n

    # -- memoization ------------------------------------------------------------

    def get_or_measure(self, runner, kernels: tuple[str, ...]) -> Measurement:
        """Return the stored measurement or run ``runner.measure`` and store.

        Concurrent callers racing on the same key may both measure, but
        exactly one result is stored and both see it (single-flight
        deduplication of the *measurement* itself lives a layer up, in
        :mod:`repro.service.batching`).
        """
        bench = runner.benchmark
        found = self.get(
            bench.name, bench.size.problem_class, bench.nprocs, tuple(kernels)
        )
        if found is not None:
            return found
        measured = runner.measure(kernels)
        return self.store_if_absent(measured)

"""The service's worker pool: admission, crash accounting, health.

The expensive part of a prediction is the discrete-event simulation of
one cell's measurement protocol (isolated kernels, chain windows,
one-shots) plus the full application run,
:func:`repro.parallel.worker.run_cell`. :class:`WorkerPool` runs those
cells on the process pool campaigns use
(:class:`repro.parallel.executor.CellPool`), so one server simulates on
``max_workers`` CPUs, or on one in-process cell thread. Workers share the
service's memo directory; its atomic writes make concurrent writers
safe.

The pool itself lives on the server's threads: it rejects new work with a
retry-after hint once the queue is full (backpressure instead of
unbounded buffering), turns a worker process that died mid-cell into a
typed :class:`~repro.errors.WorkerCrashError`, and tracks the
consecutive deaths behind the engine's degraded mode.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Union

from repro import faults, obs
from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceSaturatedError,
    WorkerCrashError,
)
from repro.parallel.executor import CellPool
from repro.parallel.worker import CellResult, CellSpec

__all__ = ["WorkerPool"]


class WorkerPool:
    """Bounded cell pool with reject-on-saturation.

    ``queue_depth`` caps *outstanding* (queued + running) cells; a submit
    beyond that raises
    :class:`~repro.errors.ServiceSaturatedError` carrying a retry-after
    estimate instead of queueing unboundedly. ``kind`` selects
    ``"process"`` (default: a long-lived pool of ``max_workers`` worker
    processes, started by the first submit) or ``"inline"`` (cells run one
    at a time on one in-process cell thread, for debugging and for tests
    that observe the cell in-process). An inline cell runs in a copy of
    the submitter's context, so its spans join the submitter's trace; it
    never runs on the submitting thread, so a caller's deadline still
    bounds its wait.

    **Worker death.** A worker process that dies mid-cell breaks the
    process pool: every cell then in flight fails with
    :class:`~repro.errors.WorkerCrashError`, the pool is rebuilt once and
    counted in ``worker_respawns``, and the next cell runs on fresh
    workers. A cell that raises ``WorkerCrashError`` itself (the
    ``worker.cell.crash`` fault site) counts as a death and a respawn
    too, though its worker survives. After ``crash_threshold``
    *consecutive* deaths the pool declares itself unhealthy
    (:attr:`healthy` — the engine's degraded-mode signal). Any
    successfully completed cell restores health.
    """

    def __init__(
        self,
        max_workers: int = 2,
        queue_depth: int = 8,
        kind: str = "process",
        retry_after: Union[float, Callable[[], float]] = 1.0,
        crash_threshold: int = 3,
    ):
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        if queue_depth < 1:
            raise ServiceError(f"queue_depth must be >= 1, got {queue_depth}")
        if kind not in ("process", "inline"):
            raise ServiceError(
                f"worker kind must be process/inline, got {kind!r}"
            )
        if crash_threshold < 1:
            raise ServiceError(
                f"crash_threshold must be >= 1, got {crash_threshold}"
            )
        self.kind = kind
        self.max_workers = max_workers
        self.queue_depth = queue_depth
        self.crash_threshold = crash_threshold
        self._retry_after = retry_after
        self._outstanding = 0
        self._lock = threading.Lock()
        self._closed = False
        self._consecutive_crashes = 0
        self._crashes = 0
        self._in_band_respawns = 0
        self._cells = (
            CellPool(max_workers, respawn_metric="worker_respawns")
            if kind == "process"
            else None
        )
        self._inline = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-cell")
            if kind == "inline"
            else None
        )

    @property
    def outstanding(self) -> int:
        """Cells queued or running right now."""
        return self._outstanding

    @property
    def saturated(self) -> bool:
        return self._outstanding >= self.queue_depth

    @property
    def healthy(self) -> bool:
        """False once ``crash_threshold`` consecutive workers have died."""
        return self._consecutive_crashes < self.crash_threshold

    @property
    def respawns(self) -> int:
        """Workers replaced after dying (also ``worker_respawns`` in obs)."""
        rebuilt = self._cells.respawns if self._cells is not None else 0
        return self._in_band_respawns + rebuilt

    @property
    def crashes(self) -> int:
        """Total worker deaths observed."""
        return self._crashes

    @property
    def consecutive_crashes(self) -> int:
        return self._consecutive_crashes

    def _note_outcome(self, exc: BaseException | None, broken: bool) -> None:
        """Health bookkeeping from a finished cell."""
        if exc is None:
            with self._lock:
                self._consecutive_crashes = 0
            return
        if not isinstance(exc, WorkerCrashError):
            return
        with self._lock:
            self._crashes += 1
            self._consecutive_crashes += 1
            if not broken:
                # The worker survived its in-band death: only the
                # accounting of a respawn applies.
                self._in_band_respawns += 1
            unhealthy = self._consecutive_crashes >= self.crash_threshold
        if not broken:
            obs.get_registry().counter("worker_respawns").inc()
        obs.log(
            "pool.worker_death",
            consecutive=self._consecutive_crashes,
            healthy=not unhealthy,
        )

    def retry_after_hint(self) -> float:
        """Seconds a rejected client should wait before retrying."""
        hint = self._retry_after
        return float(hint() if callable(hint) else hint)

    def submit(
        self, run: Callable[[CellSpec], CellResult], spec: CellSpec
    ) -> Future:
        """Run ``run(spec)`` on the pool; reject when saturated/closed.

        Under the process kind ``run`` must be a module-level function
        (it is pickled into the worker).
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("worker pool is shut down")
            if self._outstanding >= self.queue_depth:
                raise ServiceSaturatedError(
                    f"worker queue full ({self._outstanding} outstanding, "
                    f"depth {self.queue_depth})",
                    retry_after=self.retry_after_hint(),
                )
            self._outstanding += 1
        future: Future = Future()

        def _land(outcome: Future) -> None:
            # Health is settled before the waiter sees the outcome.
            exc = outcome.exception()
            broken = isinstance(exc, BrokenProcessPool)
            if broken:
                exc = WorkerCrashError(
                    "a worker process died while simulating the cell"
                )
            with self._lock:
                self._outstanding -= 1
            self._note_outcome(exc, broken)
            if exc is None:
                # repro: ignore[REP003] — done-callback: outcome resolved
                future.set_result(outcome.result())
            else:
                future.set_exception(exc)

        try:
            if faults.check("pool.submit.reject") is not None:
                raise ServiceSaturatedError(
                    "injected queue-full rejection (pool.submit.reject)",
                    retry_after=self.retry_after_hint(),
                )
            if self._inline is not None:
                outcome = self._inline.submit(
                    contextvars.copy_context().run, run, spec
                )
            else:
                assert self._cells is not None
                outcome = self._cells.submit(run, spec)
        except BaseException:  # noqa: BLE001 — undo the reservation, re-raise
            with self._lock:
                self._outstanding -= 1
            raise
        outcome.add_done_callback(_land)
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for running cells."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._inline is not None:
            self._inline.shutdown(wait=wait)
        if self._cells is not None:
            self._cells.shutdown(wait=wait)

"""Worker pool and the cell task the workers execute.

The expensive part of a prediction is the discrete-event simulation of the
measurement protocol (isolated kernels, chain windows, one-shots) plus the
full application run. :func:`simulate_cell` runs exactly that work for one
(benchmark, class, nprocs) cell through
:func:`repro.parallel.worker.run_cell`, the function campaign workers run,
so the server and campaigns simulate through one code path and share the
memo store's seed-keyed measurement records. :class:`WorkerPool` runs
cells in parallel on a bounded ``concurrent.futures`` pool, rejecting new
work with a retry-after hint once the queue is full (backpressure instead
of unbounded buffering).

Workers share the service's memo directory; its atomic writes make
concurrent writers safe. Process parallelism for serving comes from
``repro serve --shards N`` (:mod:`repro.service.shard`), not from this
pool.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Union

from repro import faults, obs
from repro.core.predictor import PredictionInputs
from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceSaturatedError,
    WorkerCrashError,
)
from repro.parallel.worker import CellSpec, run_cell

__all__ = [
    "CellOutcome",
    "simulate_cell",
    "WorkerPool",
]


@dataclass(frozen=True)
class CellOutcome:
    """What a worker hands back: inputs + actual + work accounting."""

    inputs: PredictionInputs
    actual: float
    simulations: int


def simulate_cell(spec: CellSpec) -> CellOutcome:
    """Measure one cell through the memo store at ``spec.cache_dir``.

    A cell whose measurements are all stored runs zero simulations. Every
    simulated measurement (and the application run) is stored exactly
    once, so the cell's store count is its simulation count.
    """
    stall = faults.check("worker.cell.stall")
    if stall is not None:
        time.sleep(stall.param)
    if faults.check("worker.cell.crash") is not None:
        raise WorkerCrashError("injected worker crash (worker.cell.crash)")
    result = run_cell(spec)
    return CellOutcome(
        inputs=PredictionInputs.from_dict(result.inputs),
        actual=result.actual,
        simulations=result.memo_stats["stores"],
    )


class WorkerPool:
    """Bounded ``concurrent.futures`` pool with reject-on-saturation.

    ``queue_depth`` caps *outstanding* (queued + running) cells; a submit
    beyond that raises
    :class:`~repro.errors.ServiceSaturatedError` carrying a retry-after
    estimate instead of queueing unboundedly. ``kind`` selects
    ``"thread"`` (default — shares the in-process memo store) or
    ``"inline"`` (synchronous, for debugging and deterministic tests).

    **Worker death.** A task failing with
    :class:`~repro.errors.WorkerCrashError` counts as a worker death: the
    pool records a respawn (thread workers survive the exception, so only
    the accounting applies), and after ``crash_threshold`` *consecutive*
    deaths declares itself
    unhealthy (:attr:`healthy` — the engine's degraded-mode signal). Any
    successfully completed task restores health.
    """

    def __init__(
        self,
        max_workers: int = 2,
        queue_depth: int = 8,
        kind: str = "thread",
        retry_after: Union[float, Callable[[], float]] = 1.0,
        crash_threshold: int = 3,
    ):
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        if queue_depth < 1:
            raise ServiceError(f"queue_depth must be >= 1, got {queue_depth}")
        if kind not in ("thread", "inline"):
            raise ServiceError(
                f"worker kind must be thread/inline, got {kind!r}"
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
        self._respawns = 0
        self._executor = (
            ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="repro-service"
            )
            if kind == "thread"
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
        return self._respawns

    @property
    def crashes(self) -> int:
        """Total worker deaths observed."""
        return self._crashes

    @property
    def consecutive_crashes(self) -> int:
        return self._consecutive_crashes

    def _note_outcome(self, future: Future) -> None:
        """Health bookkeeping from a finished task (runs in _release)."""
        if future.cancelled():
            return
        exc = future.exception()
        if isinstance(exc, WorkerCrashError):
            self._record_crash()
        elif exc is None:
            with self._lock:
                self._consecutive_crashes = 0

    def _record_crash(self) -> None:
        """One worker died: respawn it and update the health state."""
        with self._lock:
            self._crashes += 1
            self._consecutive_crashes += 1
            self._respawns += 1
            unhealthy = self._consecutive_crashes >= self.crash_threshold
        obs.get_registry().counter("worker_respawns").inc()
        obs.log(
            "pool.worker_respawn",
            consecutive=self._consecutive_crashes,
            healthy=not unhealthy,
        )

    def retry_after_hint(self) -> float:
        """Seconds a rejected client should wait before retrying."""
        hint = self._retry_after
        return float(hint() if callable(hint) else hint)

    def submit(self, fn: Callable, *args) -> Future:
        """Run ``fn(*args)`` on the pool; reject when saturated/closed."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("worker pool is shut down")
            if self._outstanding >= self.queue_depth:
                raise ServiceSaturatedError(
                    f"worker queue full ({self._outstanding} outstanding, "
                    f"depth {self.queue_depth})",
                    retry_after=self.retry_after_hint(),
                )
            executor = self._executor
            self._outstanding += 1

        def _release(fut: Future) -> None:
            with self._lock:
                self._outstanding -= 1
            self._note_outcome(fut)

        try:
            if faults.check("pool.submit.reject") is not None:
                raise ServiceSaturatedError(
                    "injected queue-full rejection (pool.submit.reject)",
                    retry_after=self.retry_after_hint(),
                )
            if executor is None:  # inline
                future: Future = Future()
                try:
                    future.set_result(fn(*args))
                except BaseException as exc:  # noqa: BLE001 — via future
                    future.set_exception(exc)
                _release(future)
                return future
            future = executor.submit(fn, *args)
        except BaseException:  # noqa: BLE001 — undo the reservation, re-raise
            with self._lock:
                self._outstanding -= 1
            raise
        future.add_done_callback(_release)
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for running cells."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait)

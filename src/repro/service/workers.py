"""Worker pool and the cell task the workers execute.

The expensive part of a prediction is the discrete-event simulation of the
measurement protocol (isolated kernels, chain windows, one-shots) plus the
full application run. :func:`execute_cell` packages exactly that work for
one (benchmark, class, nprocs) cell; :class:`WorkerPool` runs cells in
parallel on a bounded ``concurrent.futures`` pool, rejecting new work with
a retry-after hint once the queue is full (backpressure instead of
unbounded buffering).

Workers share the service's persistent tier; ``INSERT OR IGNORE``
semantics in :class:`~repro.instrument.database.PerformanceDatabase` make
concurrent writers safe. Process parallelism for serving comes from
``repro serve --shards N`` (:mod:`repro.service.shard`), not from this
pool.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro import faults, obs
from repro.core.predictor import PredictionInputs
from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceSaturatedError,
    WorkerCrashError,
)
from repro.instrument.database import PerformanceDatabase
from repro.instrument.runner import ApplicationRunner, Measurement, MeasurementConfig
from repro.instrument.sweeps import Campaign, CampaignPlan
from repro.service.cache import ACTUAL_KEY
from repro.simmachine.machine import MachineConfig

__all__ = [
    "CellTask",
    "CellOutcome",
    "execute_cell",
    "replay_cell",
    "WorkerPool",
]


@dataclass(frozen=True)
class CellTask:
    """One unit of worker-pool work: measure a single sweep cell."""

    plan: CampaignPlan
    machine: MachineConfig
    measurement: MeasurementConfig
    application_seed: int = 7

    def __post_init__(self) -> None:
        if len(self.plan.configurations()) != 1:
            raise ServiceError(
                "a cell task needs a single-cell plan; "
                f"got {len(self.plan.configurations())} cells"
            )


@dataclass(frozen=True)
class CellOutcome:
    """What a worker hands back: inputs + actual + work accounting."""

    benchmark: str
    problem_class: str
    nprocs: int
    inputs: PredictionInputs
    actual: float
    simulations: int
    reused: int


def execute_cell(task: CellTask, database: PerformanceDatabase) -> CellOutcome:
    """Measure one cell through the service's shared persistent tier.

    A fully archived cell runs zero simulations — the campaign memoization
    *is* the L2 cache replay.
    """
    stall = faults.check("worker.cell.stall")
    if stall is not None:
        time.sleep(stall.param)
    if faults.check("worker.cell.crash") is not None:
        raise WorkerCrashError("injected worker crash (worker.cell.crash)")
    campaign = Campaign(
        plan=task.plan,
        machine=task.machine,
        measurement=task.measurement,
        database=database,
    )
    (problem_class, nprocs) = task.plan.configurations()[0]
    inputs = campaign.run_configuration(problem_class, nprocs)
    simulations = campaign.measurements_run
    reused = campaign.measurements_reused
    benchmark = task.plan.benchmark
    cached_actual = database.get(benchmark, problem_class, nprocs, ACTUAL_KEY)
    if cached_actual is not None:
        actual = cached_actual.mean
        reused += 1
    else:
        bench_run = ApplicationRunner(
            campaign_benchmark(benchmark, problem_class, nprocs),
            task.machine,
            seed=task.application_seed,
        ).run()
        actual = bench_run.total_time
        database.store_if_absent(
            Measurement(
                benchmark=benchmark,
                problem_class=problem_class,
                nprocs=nprocs,
                kernels=ACTUAL_KEY,
                samples=(actual,),
                overhead=0.0,
            )
        )
        simulations += 1
    return CellOutcome(
        benchmark=benchmark,
        problem_class=problem_class,
        nprocs=nprocs,
        inputs=inputs,
        actual=actual,
        simulations=simulations,
        reused=reused,
    )


def replay_cell(
    task: CellTask, database: PerformanceDatabase
) -> Optional[CellOutcome]:
    """The read-only twin of :func:`execute_cell`, or None.

    Looks up every row :func:`execute_cell` would read (the campaign's
    loop, one-shot and window rows, then the application total) in one
    snapshot of the cell (:meth:`PerformanceDatabase.read_cell`, a single
    query) and simulates nothing: any missing row returns None. Cheap
    enough for the request thread, which is where the serving engine
    calls it.
    """
    campaign = Campaign(
        plan=task.plan,
        machine=task.machine,
        measurement=task.measurement,
        database=database,
    )
    (problem_class, nprocs) = task.plan.configurations()[0]
    benchmark = task.plan.benchmark
    rows = database.read_cell(benchmark, problem_class, nprocs)
    inputs = campaign.replay_configuration(problem_class, nprocs, rows)
    if inputs is None:
        return None
    actual = rows(ACTUAL_KEY)
    if actual is None:
        return None
    return CellOutcome(
        benchmark=benchmark,
        problem_class=problem_class,
        nprocs=nprocs,
        inputs=inputs,
        actual=actual.mean,
        simulations=0,
        reused=campaign.measurements_reused + 1,
    )


def campaign_benchmark(benchmark: str, problem_class: str, nprocs: int):
    """Build the benchmark object a cell task refers to."""
    from repro.npb import make_benchmark

    return make_benchmark(benchmark, problem_class, nprocs)


class WorkerPool:
    """Bounded ``concurrent.futures`` pool with reject-on-saturation.

    ``queue_depth`` caps *outstanding* (queued + running) cells; a submit
    beyond that raises
    :class:`~repro.errors.ServiceSaturatedError` carrying a retry-after
    estimate instead of queueing unboundedly. ``kind`` selects
    ``"thread"`` (default — shares the in-process database) or
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

"""Run cells on a pool of worker processes, merge results deterministically.

:class:`CellPool` is the one process pool: campaigns
(:func:`execute_cells`) and the prediction service
(:class:`repro.service.workers.WorkerPool`) both run
:class:`~repro.parallel.worker.CellSpec` work on it — a campaign one
:func:`~repro.parallel.worker.measure` task per missing measurement, the
service one :func:`~repro.parallel.worker.run_cell` per cell. It starts
its workers lazily, on the first submit, with the default ``fork`` start
method.

**Campaigns fan out measurements, not cells.** A cell is a set of
independent, seeded simulations (19–22 for the NPB codes at chain
lengths 2 and 3), each stored under its own memo key, so
with ``jobs > 1`` :func:`execute_cells` lists every measurement of every
cell that has no record (:func:`~repro.parallel.worker.missing_measurements`)
and runs each as one pool task: overheads first, then application runs,
then each cell's isolated and chain measurements once its overhead (which
they subtract) is stored. Every cell is then assembled inline by
:func:`~repro.parallel.worker.run_cell`, which reads the records and
simulates nothing. A sweep's largest cell therefore no longer sets its
wall time, and each missing measurement is simulated exactly once.

**Workers start clean.** Each forked worker replaces the lock-bearing
process state it inherited (the obs registry, tracer and profiler slot,
and the fault injector) before it runs anything, so a lock some other
parent thread held at fork time cannot deadlock it. Each task then runs
under exactly the fault plan its spec carries
(``CellSpec.fault_plan``), never one inherited from the parent.

**Observability crosses the pool boundary as data.** A worker returns its
counter deltas, span-histogram deltas and (when profiled) sampling
profile with each result, and the pool folds them into this process's
registry (:func:`absorb`) before the result's future resolves: exactly
once per completed task, never for a lost one.

**Worker death is survivable.** When a worker dies mid-task (a segfault,
an OOM kill) every task in flight on that pool fails with
``BrokenProcessPool``; the pool discards the broken executor, counts one
respawn, and the next submit starts a fresh one. :func:`execute_cells`
resubmits exactly the lost measurements that still have no record —
completed measurements are never re-run, and because measurements are
deterministic (REP001) a re-run produces the same floats the lost
attempt would have. ``max_respawns`` bounds the retries before
``BrokenProcessPool`` propagates.

:func:`execute_cells` returns results *in submission order* regardless
of which worker finished first, so a campaign's row order is identical
to a serial run.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional, Sequence, Union

from repro import faults, obs
from repro.obs.profile import ProfileData
from repro.parallel.worker import (
    APPLICATION,
    OVERHEAD,
    CellResult,
    CellSpec,
    Kernels,
    MeasureResult,
    measure,
    missing_measurements,
    run_cell,
)

__all__ = ["CellPool", "absorb", "execute_cells"]

Result = Union[CellResult, MeasureResult]
Run = Callable[..., Result]
Measure = Callable[[CellSpec, Kernels], MeasureResult]


def absorb(result: Result) -> None:
    """Fold one worker task's observability into this process's registry."""
    obs.merge_counter_deltas(result.counters)
    obs.merge_histogram_deltas(result.histograms)
    obs.merge_child_profile(result.profile)


def _start_worker() -> None:
    """Pool initializer: drop the lock-bearing state inherited by fork."""
    obs.reset_after_fork()
    faults.reset_after_fork()


def _run_in_worker(run: Run, spec: CellSpec, *args: Any) -> Result:
    """One task in a pool worker, under exactly its spec's fault plan."""
    if spec.fault_plan is None:
        faults.clear()
    else:
        faults.install(spec.fault_plan)
    return run(spec, *args)


class CellPool:
    """A long-lived, lazily started pool of ``max_workers`` processes.

    :meth:`submit` returns a future that resolves in this process after
    the task's observability has been absorbed. ``respawn_metric`` names
    the obs counter that counts replaced pools.
    """

    def __init__(
        self,
        max_workers: int,
        respawn_metric: str = "parallel_worker_respawns",
    ):
        self.max_workers = max_workers
        self.respawn_metric = respawn_metric
        self.respawns = 0
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    def submit(self, run: Run, spec: CellSpec, *args: Any) -> Future:
        """Run ``run(spec, *args)`` in a worker; ``run`` must be module-level."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cell pool is shut down")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers, initializer=_start_worker
                )
            executor = self._executor
        landed: Future = Future()
        try:
            running = executor.submit(_run_in_worker, run, spec, *args)
        except BrokenProcessPool as exc:
            self._discard(executor)
            landed.set_exception(exc)
            return landed

        def _land(done: Future) -> None:
            try:
                result = done.result()
                absorb(result)
            except BrokenProcessPool as exc:
                self._discard(executor)
                landed.set_exception(exc)
            except BaseException as exc:  # noqa: BLE001 — via the future
                landed.set_exception(exc)
            else:
                landed.set_result(result)

        running.add_done_callback(_land)
        return landed

    def _discard(self, executor: ProcessPoolExecutor) -> None:
        """Drop a broken executor once; the next submit starts a new one."""
        with self._lock:
            if self._executor is not executor:
                return
            self._executor = None
            self.respawns += 1
        executor.shutdown(wait=False)
        obs.get_registry().counter(self.respawn_metric).inc()
        obs.log("parallel.pool_respawn", respawns=self.respawns)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers, waiting for running tasks when ``wait``."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)


def _record(result: CellResult) -> None:
    obs.get_registry().histogram("parallel_cell_seconds").observe(
        result.duration
    )
    obs.log(
        "parallel.cell_done",
        benchmark=result.benchmark,
        cls=result.problem_class,
        nprocs=result.nprocs,
        duration=f"{result.duration:.3f}",
    )


def _round(
    pool: CellPool,
    specs: Sequence[CellSpec],
    todo: list[list[Kernels]],
    done: list[list[MeasureResult]],
    run: Measure,
) -> None:
    """Submit every measurement in ``todo`` once; move what lands to ``done``.

    Overheads go first and application runs second; a cell's loop
    measurements wait for its overhead. Once the pool breaks, waiting
    measurements stay in ``todo`` with the lost ones.
    """
    owner: dict[Future, tuple[int, Kernels]] = {}

    def submit(index: int, kernels: Kernels) -> Future:
        future = pool.submit(run, specs[index], kernels)
        owner[future] = (index, kernels)
        return future

    waiting: dict[int, list[Kernels]] = {}
    for index, wanted in enumerate(todo):
        if OVERHEAD in wanted:
            submit(index, OVERHEAD)
    for index, wanted in enumerate(todo):
        if APPLICATION in wanted:
            submit(index, APPLICATION)
    for index, wanted in enumerate(todo):
        loops = [k for k in wanted if k not in (OVERHEAD, APPLICATION)]
        if OVERHEAD in wanted:
            waiting[index] = loops
        else:
            for kernels in loops:
                submit(index, kernels)
    pending = set(owner)
    broken = False
    while pending:
        finished, pending = wait(
            pending, timeout=600.0, return_when=FIRST_COMPLETED
        )
        for future in finished:
            index, kernels = owner[future]
            exc = future.exception()
            if exc is None:
                done[index].append(future.result())
                todo[index].remove(kernels)
                if kernels == OVERHEAD and not broken:
                    pending.update(
                        submit(index, k) for k in waiting.pop(index)
                    )
            elif isinstance(exc, BrokenProcessPool):
                broken = True
            else:
                raise exc


def _fan_out(
    specs: Sequence[CellSpec], jobs: int, max_respawns: int, run: Measure
) -> list[list[MeasureResult]]:
    """Simulate every missing measurement of ``specs`` on one pool.

    Returns each cell's completed task results. After a pool break only
    the lost measurements that still have no record are resubmitted.
    """
    todo = [missing_measurements(spec) for spec in specs]
    done: list[list[MeasureResult]] = [[] for _ in specs]
    total = sum(map(len, todo))
    if not total:
        return done
    pool = CellPool(min(jobs, total))
    try:
        with obs.span(
            "parallel.execute", cells=len(specs), measurements=total, jobs=jobs
        ):
            _round(pool, specs, todo, done, run)
            while any(todo):
                lost = sum(map(len, todo))
                obs.log("parallel.lost_measurements", lost_measurements=lost)
                if pool.respawns > max_respawns:
                    raise BrokenProcessPool(
                        f"{lost} measurements lost after "
                        f"{pool.respawns} pool respawns"
                    )
                for index, spec in enumerate(specs):
                    if todo[index]:
                        unstored = missing_measurements(spec)
                        todo[index] = [k for k in todo[index] if k in unstored]
                _round(pool, specs, todo, done, run)
    finally:
        pool.shutdown()
    return done


def _fold(cell: CellResult, tasks: Sequence[MeasureResult]) -> CellResult:
    """``cell`` as the whole cell's work: its assembly plus its pool tasks.

    Memo counts, duration and worker profiles add up; the tasks' counter
    and histogram deltas were already absorbed as each task landed.
    """
    if not tasks:
        return cell
    stats = dict(cell.memo_stats)
    for task in tasks:
        for name, count in task.memo_stats.items():
            stats[name] += count
    profile = cell.profile
    profiles = [
        ProfileData.from_dict(p)
        for p in (profile, *(task.profile for task in tasks))
        if p
    ]
    if profiles:
        for other in profiles[1:]:
            profiles[0].merge(other)
        profile = profiles[0].to_dict()
    return dataclasses.replace(
        cell,
        memo_stats=stats,
        duration=cell.duration + sum(task.duration for task in tasks),
        profile=profile,
    )


def execute_cells(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    max_respawns: int = 2,
    _measure: Measure = measure,
) -> list[CellResult]:
    """Measure every cell, serially or across ``jobs`` worker processes.

    ``jobs <= 1`` runs each :func:`run_cell` inline. ``jobs > 1`` first
    simulates the cells' missing measurements on a pool, one
    :func:`~repro.parallel.worker.measure` task each, then assembles each
    cell inline with :func:`run_cell` from the stored records, so both
    paths return bit-identical results. ``_measure`` is a test seam for
    injecting worker behaviour (e.g. a self-killing measurement); it must
    stay a picklable module-level callable (REP007).
    """
    specs = list(specs)
    if jobs > 1:
        done = _fan_out(specs, jobs, max_respawns, _measure)
    else:
        done = [[] for _ in specs]
    results = [_fold(run_cell(spec), tasks) for spec, tasks in zip(specs, done)]
    for result in results:
        _record(result)
    return results

"""The one scheduler of cold work: cells in, measurements on a process pool.

:class:`CellPool` is shared by campaigns (:func:`execute_cells`) and the
prediction service (:class:`repro.service.workers.WorkerPool`). Each
owner keeps one long-lived instance, whose workers start lazily, on the
first task, with the default ``fork`` start method.

**Cells fan out as measurements.** A cell is a set of independent,
seeded simulations (19–22 for the NPB codes at chain lengths 2 and 3),
each stored under its own memo key. :meth:`CellPool.submit` runs each
that has no record (:func:`~repro.parallel.worker.missing_measurements`)
as one :func:`~repro.parallel.worker.measure` task: overheads first,
then application runs, then each cell's isolated and chain measurements
once its overhead (which they subtract) is stored. A measurement already
in flight, for any cell, is awaited instead (single-flight by memo
record). The cell function (:func:`~repro.parallel.worker.run_cell` by
default) then runs as the cell's last task and reads the records. So
each missing measurement is simulated once however many cells share it,
and a batch's largest cell does not set its wall time.

**Workers start clean.** Each forked worker replaces the lock-bearing
process state it inherited (the obs registry, tracer and profiler slot,
and the fault injector) before it runs anything, and each task runs
under exactly the fault plan its spec carries (``CellSpec.fault_plan``).

**Observability crosses the pool boundary as data.** A task returns its
counter deltas, span-histogram deltas and (when profiled) sampling
profile, which the pool folds into this process's registry
(:func:`absorb`) before the task's future resolves: exactly once per
completed task, never for a lost one.

**Worker death is survivable.** When a worker dies mid-task (a segfault,
an OOM kill) every task in flight fails with ``BrokenProcessPool``; the
pool discards the broken executor, counts one respawn, and the next task
starts a fresh one. A cell that lost tasks starts over within its retry
budget (``max_respawns``), resubmitting only the measurements that still
have no record; measurements are deterministic (REP001), so a re-run
produces the floats the lost attempt would have. Past the budget the
cell fails with ``BrokenProcessPool``.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
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


@dataclasses.dataclass(eq=False)
class _Cell:
    """One submitted cell: its measurement tasks, then its run task."""

    spec: CellSpec
    run: Run
    retries: int
    future: Future = dataclasses.field(default_factory=Future)
    #: Results of the measurement tasks this cell submitted itself.
    tasks: list[MeasureResult] = dataclasses.field(default_factory=list)
    result: Optional[CellResult] = None
    error: Optional[BaseException] = None
    lost: Optional[BaseException] = None
    #: What the cell still waits for; its next step is taken at zero.
    holds: int = 0


class CellPool:
    """The one scheduler of cold work, on a lazily started worker pool.

    :meth:`submit` takes cells and returns one future per cell, resolved
    in this process once every task of the cell has landed and been
    absorbed. ``respawn_metric`` names the obs counter that counts
    replaced pools.
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
        #: Measurement record path -> the future of the task storing it.
        self._flights: dict[str, Future] = {}
        #: Cells submitted and not yet resolved.
        self._cells: set[Future] = set()

    def submit(
        self,
        specs: Sequence[CellSpec],
        run: Run = run_cell,
        max_respawns: int = 0,
    ) -> list[Future]:
        """One future per cell: its missing measurements, then ``run(spec)``.

        A measurement already in flight on this pool is awaited, not
        submitted again. ``run`` must be module-level (it is pickled into
        the worker). A cell that lost tasks to a dying worker starts over
        at most ``max_respawns`` times, then fails with
        ``BrokenProcessPool``.
        """
        cells = [_Cell(spec, run, max_respawns) for spec in specs]
        with self._lock:
            if self._closed:
                raise RuntimeError("cell pool is shut down")
            self._cells.update(cell.future for cell in cells)
        for cell in cells:
            cell.future.add_done_callback(self._cells.discard)
        self._measure(cells)
        return [cell.future for cell in cells]

    def _measure(self, cells: Sequence[_Cell]) -> None:
        """Submit what ``cells`` lack: overheads first, application runs
        second, and each cell's loops once its overhead is stored."""
        plans = []
        for cell in cells:
            self._hold(cell)
            try:
                todo = dict(missing_measurements(cell.spec))
            except Exception as exc:  # noqa: BLE001 — via the future
                self._release(cell, exc)
                continue
            overhead = todo.pop(OVERHEAD, None)
            application = todo.pop(APPLICATION, None)
            plans.append((cell, overhead, application, list(todo.items())))
        later = []
        for cell, overhead, _, loops in plans:
            stored = self._join(cell, OVERHEAD, overhead) if overhead else None
            if stored is None:
                later.append((cell, loops))
            else:
                self._wait(
                    cell,
                    stored,
                    lambda _, cell=cell, loops=loops: self._loops(cell, loops),
                )
        for cell, _, application, _ in plans:
            if application is not None:
                self._join(cell, APPLICATION, application)
        for cell, loops in later:
            self._loops(cell, loops)
        for cell, *_ in plans:
            self._release(cell)

    def _loops(self, cell: _Cell, loops: list[tuple[Kernels, str]]) -> None:
        for kernels, path in loops:
            self._join(cell, kernels, path)

    def _join(
        self, cell: _Cell, kernels: Kernels, path: str
    ) -> Optional[Future]:
        """Make ``cell`` wait for the task that stores ``path``, and return it.

        The task is submitted unless one is in flight. Returns None,
        waiting for nothing, when the record already exists.
        """
        with self._lock:
            future = self._flights.get(path)
            own = future is None
            if own:
                if os.path.exists(path):
                    return None
                future = self._flights[path] = Future()
        if not own:
            self._wait(cell, future, None)
            return future
        future.add_done_callback(lambda done: self._forget(path, done))
        self._wait(cell, future, cell.tasks.append)
        self._launch(future, measure, cell.spec, kernels)
        return future

    def _forget(self, path: str, future: Future) -> None:
        with self._lock:
            if self._flights.get(path) is future:
                del self._flights[path]

    def _wait(
        self,
        cell: _Cell,
        future: Future,
        then: Optional[Callable[[Any], None]],
    ) -> None:
        """Hold ``cell`` until ``future`` lands; ``then(result)`` on success."""
        self._hold(cell)

        def landed(done: Future) -> None:
            exc = done.exception()
            if exc is None and then is not None:
                try:
                    then(done.result())
                except Exception as failure:  # noqa: BLE001 — via the cell
                    exc = failure
            self._release(cell, exc)

        future.add_done_callback(landed)

    def _hold(self, cell: _Cell) -> None:
        with self._lock:
            cell.holds += 1

    def _release(
        self, cell: _Cell, exc: Optional[BaseException] = None
    ) -> None:
        """Drop one of ``cell``'s holds, noting ``exc``; after the last,
        take the cell's next step."""
        with self._lock:
            if isinstance(exc, BrokenProcessPool):
                cell.lost = exc
            elif exc is not None and cell.error is None:
                cell.error = exc
            cell.holds -= 1
            if cell.holds:
                return
        failure = cell.error or (cell.lost if cell.retries <= 0 else None)
        try:
            if failure is None:
                self._step(cell)
        except Exception as exc:  # noqa: BLE001 — via the future
            failure = exc
        if failure is not None and not cell.future.done():
            cell.future.set_exception(failure)

    def _step(self, cell: _Cell) -> None:
        """Start over, run the cell function, or resolve the cell."""
        if cell.lost is not None:
            cell.retries -= 1
            cell.lost = None
            obs.log("parallel.cell_retry", nprocs=cell.spec.nprocs)
            self._measure([cell])
        elif cell.result is not None:
            cell.future.set_result(_fold(cell.result, cell.tasks))
        else:
            running: Future = Future()
            self._wait(cell, running, lambda r: setattr(cell, "result", r))
            self._launch(running, cell.run, cell.spec)

    def _launch(
        self, landed: Future, run: Run, spec: CellSpec, *args: Any
    ) -> None:
        """Run ``run(spec, *args)`` in a worker; resolve ``landed`` with it."""
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers, initializer=_start_worker
                )
            executor = self._executor
        try:
            running = executor.submit(_run_in_worker, run, spec, *args)
        except Exception as exc:  # noqa: BLE001 — via the future
            running = Future()
            running.set_exception(exc)

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

    def _discard(self, executor: ProcessPoolExecutor) -> None:
        """Drop a broken executor once; the next task starts a new one.

        Its flights go with it, so a cell that starts over submits their
        measurements again instead of joining lost tasks.
        """
        with self._lock:
            if self._executor is not executor:
                return
            self._executor = None
            self._flights.clear()
            self.respawns += 1
        executor.shutdown(wait=False)
        obs.get_registry().counter(self.respawn_metric).inc()
        obs.log("parallel.pool_respawn", respawns=self.respawns)

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new cells; with ``wait``, stop the workers once the
        admitted cells resolve.

        Without ``wait`` the workers still finish the admitted cells, and
        exit when the pool is collected.
        """
        with self._lock:
            self._closed = True
            cells = list(self._cells)
        if not wait:
            return
        futures_wait(cells)
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()


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
            stats[name] = stats.get(name, 0) + count
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
    pool: Optional[CellPool] = None,
    max_respawns: int = 2,
) -> list[CellResult]:
    """Measure every cell, inline or on its owner's ``pool``.

    Without a pool each :func:`run_cell` runs inline: the serial
    reference. With one, the cells are submitted to it and this waits on
    their futures; a cell that loses tasks to a dying worker starts over
    at most ``max_respawns`` times. Both paths return bit-identical
    results, in ``specs`` order.
    """
    specs = list(specs)
    if pool is None:
        results = [run_cell(spec) for spec in specs]
    else:
        with obs.span("parallel.execute", cells=len(specs)):
            cells = pool.submit(specs, run_cell, max_respawns)
            futures_wait(cells)
        results = [cell.result() for cell in cells]
    for result in results:
        _record(result)
    return results

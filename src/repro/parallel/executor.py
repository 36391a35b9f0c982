"""Run cells on a pool of worker processes, merge results deterministically.

:class:`CellPool` is the one process pool: campaigns
(:func:`execute_cells`) and the prediction service
(:class:`repro.service.workers.WorkerPool`) both run
:class:`~repro.parallel.worker.CellSpec` cells on it. It starts its
workers lazily, on the first submit, with the default ``fork`` start
method.

**Workers start clean.** Each forked worker replaces the lock-bearing
process state it inherited (the obs registry, tracer and profiler slot,
and the fault injector) before it runs anything, so a lock some other
parent thread held at fork time cannot deadlock it. Each cell then runs
under exactly the fault plan its spec carries
(``CellSpec.fault_plan``), never one inherited from the parent.

**Observability crosses the pool boundary as data.** A worker returns its
counter deltas, span-histogram deltas and (when profiled) sampling
profile with each :class:`~repro.parallel.worker.CellResult`, and the
pool folds them into this process's registry (:func:`absorb`) before the
result's future resolves: exactly once per completed cell, never for a
lost one.

**Worker death is survivable.** When a worker dies mid-cell (a segfault,
an OOM kill) every cell in flight on that pool fails with
``BrokenProcessPool``; the pool discards the broken executor, counts one
respawn, and the next submit starts a fresh one. :func:`execute_cells`
resubmits exactly the cells that have no result yet — completed cells
are never re-run, and because cells are deterministic (REP001) a re-run
produces the same floats the lost attempt would have. ``max_respawns``
bounds the retries before ``BrokenProcessPool`` propagates.

:func:`execute_cells` returns results *in submission order* regardless
of which worker finished first, so a campaign's row order is identical
to a serial run.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence

from repro import faults, obs
from repro.parallel.worker import CellResult, CellSpec, run_cell

__all__ = ["CellPool", "absorb", "execute_cells"]

Run = Callable[[CellSpec], CellResult]


def absorb(result: CellResult) -> None:
    """Fold one worker cell's observability into this process's registry."""
    obs.merge_counter_deltas(result.counters)
    obs.merge_histogram_deltas(result.histograms)
    obs.merge_child_profile(result.profile)


def _start_worker() -> None:
    """Pool initializer: drop the lock-bearing state inherited by fork."""
    obs.reset_after_fork()
    faults.reset_after_fork()


def _run_in_worker(run: Run, spec: CellSpec) -> CellResult:
    """One cell in a pool worker, under exactly its spec's fault plan."""
    if spec.fault_plan is None:
        faults.clear()
    else:
        faults.install(spec.fault_plan)
    return run(spec)


class CellPool:
    """A long-lived, lazily started pool of ``max_workers`` processes.

    :meth:`submit` returns a future that resolves in this process after
    the cell's observability has been absorbed. ``respawn_metric`` names
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

    def submit(self, run: Run, spec: CellSpec) -> Future:
        """Run ``run(spec)`` in a worker; ``run`` must be module-level."""
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
            running = executor.submit(_run_in_worker, run, spec)
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
        """Stop the workers, waiting for running cells when ``wait``."""
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


def execute_cells(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    max_respawns: int = 2,
    _run: Run = run_cell,
) -> list[CellResult]:
    """Run every cell, serially or across ``jobs`` worker processes.

    ``jobs <= 1`` (or a single spec) runs inline — same code path the
    workers use, so the results are identical by construction. ``_run`` is
    a test seam for injecting worker behaviour (e.g. a self-killing cell);
    it must stay a picklable module-level callable (REP007).
    """
    specs = list(specs)
    if jobs <= 1 or len(specs) <= 1:
        results = [_run(spec) for spec in specs]
        for result in results:
            _record(result)
        return results
    ordered: list[Optional[CellResult]] = [None] * len(specs)
    pool = CellPool(min(jobs, len(specs)))
    try:
        with obs.span("parallel.execute", cells=len(specs), jobs=jobs):
            remaining = list(range(len(specs)))
            while remaining:
                index_of = {pool.submit(_run, specs[i]): i for i in remaining}
                pending = set(index_of)
                while pending:
                    done, pending = wait(
                        pending, timeout=600.0, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        exc = future.exception()
                        if exc is None:
                            result = future.result()
                            ordered[index_of[future]] = result
                            _record(result)
                        elif not isinstance(exc, BrokenProcessPool):
                            raise exc
                remaining = [i for i, r in enumerate(ordered) if r is None]
                if remaining:
                    obs.log("parallel.lost_cells", lost_cells=len(remaining))
                    if pool.respawns > max_respawns:
                        raise BrokenProcessPool(
                            f"{len(remaining)} cells lost after "
                            f"{pool.respawns} pool respawns"
                        )
    finally:
        pool.shutdown()
    return ordered  # type: ignore[return-value]

"""Per-cell campaign work, shaped for cross-process execution.

A sweep cell — one (benchmark, problem class, nprocs) configuration plus
the chain lengths to measure — is described by the frozen, fully picklable
:class:`CellSpec`. Its work is a set of independent measurements (the
empty-loop overhead, what :func:`cell_measurements` lists, and the
application run; 19–22 of them for the NPB codes at chain lengths 2 and
3), each one seeded, deterministic simulation stored under its own memo
key. Two module-level entry points, both of which a
``ProcessPoolExecutor`` can run directly (REP007 keeps lambdas and
captured locks out of that path), work on it:

* :func:`measure` simulates and stores one measurement of a cell — the
  pool task that the cold-work scheduler
  (:class:`repro.parallel.executor.CellPool`) runs once per measurement
  that :func:`missing_measurements` finds without a record;
* :func:`run_cell` is the one way a cell is assembled: it measures what
  the store lacks and reads the rest. The scheduler runs it as a cell's
  last task, after that cell's measurements, so there it simulates
  nothing; a serial pipeline and the service's inline kind run it
  alone.

Results travel back as plain data: :class:`CellResult` (prediction inputs
via :meth:`PredictionInputs.to_dict`) and :class:`MeasureResult`, never
live runner or machine objects. Every measurement goes through the memo
store (:func:`measure_chain`, :func:`run_application`,
:func:`prime_runner_overhead`), so a hit replays the exact floats a fresh
simulation would produce (REP001 determinism), serial, parallel and
warm-cache runs stay bit-identical, and all of them share one set of
seed-keyed measurement records.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from repro import faults, obs
from repro.core.kernel import ControlFlow
from repro.core.predictor import PredictionInputs
from repro.errors import ExperimentError, WorkerCrashError
from repro.instrument.runner import (
    ApplicationRunner,
    ChainRunner,
    Measurement,
    MeasurementConfig,
)
from repro.npb import make_benchmark
from repro.parallel.keys import MemoKey, application_key, measurement_key
from repro.parallel.memo import SimulationMemoStore
from repro.simmachine.machine import MachineConfig

__all__ = [
    "APPLICATION",
    "OVERHEAD",
    "CellSpec",
    "CellResult",
    "MeasureResult",
    "run_cell",
    "measure",
    "missing_measurements",
    "cell_inputs",
    "cell_measurements",
    "measure_chain",
    "run_application",
    "prime_runner_overhead",
]

#: What :func:`measure` measures: the empty-loop overhead (``OVERHEAD``),
#: one isolated kernel or chain window (a tuple of kernel names), or the
#: application run (``APPLICATION``).
Kernels = Optional[tuple[str, ...]]
OVERHEAD: tuple[str, ...] = ()
APPLICATION: Kernels = None


@dataclass(frozen=True)
class CellSpec:
    """Everything a worker process needs to simulate one sweep cell.

    Deliberately value-only: configs are frozen dataclasses, the memo store
    is referenced by its directory (each run opens its own handle), and
    the fault plan rides along as data: a pool worker runs the cell, or
    any of its measurements, under exactly this plan (see
    :mod:`repro.parallel.executor`).
    """

    benchmark: str
    problem_class: str
    nprocs: int
    chain_lengths: tuple[int, ...]
    machine: MachineConfig
    measurement: MeasurementConfig
    cache_dir: str
    application_seed: int = 7
    fault_plan: Optional[faults.FaultPlan] = None
    #: When the parent campaign is being profiled, workers run their own
    #: thread-backend sampler at this interval and ship the profile home.
    profile_interval: Optional[float] = None


@dataclass(frozen=True)
class CellResult:
    """One simulated cell, reduced to plain data for the trip home.

    ``counters`` and ``histograms`` carry the worker's observability
    deltas (:mod:`repro.obs.delta`) so the parent can merge them into its
    own registry; ``inputs`` round-trips through
    :meth:`PredictionInputs.from_dict`.
    """

    benchmark: str
    problem_class: str
    nprocs: int
    chain_lengths: tuple[int, ...]
    actual: float
    inputs: dict
    memo_stats: dict
    counters: tuple[tuple[str, tuple, int], ...]
    duration: float
    #: ``ProfileData.to_dict()`` of the worker's sampler when the parent
    #: asked for profiling (``CellSpec.profile_interval``), else ``None``.
    profile: Optional[dict] = None
    histograms: tuple = ()


@dataclass(frozen=True)
class MeasureResult:
    """One :func:`measure` task's memo counts and observability deltas.

    The measured value itself stays in the memo store, where
    :func:`run_cell` reads it; the pool absorbs the deltas like a
    :class:`CellResult`'s.
    """

    memo_stats: dict
    counters: tuple[tuple[str, tuple, int], ...]
    duration: float
    profile: Optional[dict] = None
    histograms: tuple = ()


# -- memo-aware measurement helpers ----------------------------------------


def cell_measurements(
    bench, chain_lengths: Sequence[int]
) -> list[tuple[str, ...]]:
    """Every kernel tuple a cell measures, once each, in protocol order.

    The single enumeration of what a cell measures besides its overhead
    and application run: isolated loop kernels, one-shot pre/post
    kernels, then every window of every chain length.
    """
    flow = ControlFlow(bench.loop_kernel_names)
    kernels = (
        *flow.names, *bench.pre_kernel_names, *bench.post_kernel_names
    )
    windows = [w for n in chain_lengths for w in flow.windows(n)]
    return list(dict.fromkeys([(k,) for k in kernels] + windows))


def cell_inputs(
    bench,
    chain_lengths: Sequence[int],
    mean_of: Callable[[tuple[str, ...]], float],
) -> PredictionInputs:
    """A cell's prediction inputs, one ``mean_of(kernels)`` per measurement.

    ``mean_of`` is called once for each of :func:`cell_measurements`, in
    that order.
    """
    flow = ControlFlow(bench.loop_kernel_names)
    means = {
        kernels: mean_of(kernels)
        for kernels in cell_measurements(bench, chain_lengths)
    }
    return PredictionInputs(
        flow=flow,
        iterations=bench.iterations,
        loop_times={k: means[(k,)] for k in flow.names},
        pre_times={k: means[(k,)] for k in bench.pre_kernel_names},
        post_times={k: means[(k,)] for k in bench.post_kernel_names},
        chain_times={
            w: means[w] for n in chain_lengths for w in flow.windows(n)
        },
    )


def _measurement_key(runner: ChainRunner, kernels: Sequence[str]) -> MemoKey:
    """The memo key of one loop measurement (``()``: the overhead)."""
    bench = runner.benchmark
    return measurement_key(
        runner.machine_config,
        runner.config,
        bench.name,
        bench.size.problem_class,
        bench.nprocs,
        kernels,
    )


def _application_key(runner: ApplicationRunner) -> MemoKey:
    bench = runner.benchmark
    return application_key(
        runner.machine_config,
        bench.name,
        bench.size.problem_class,
        bench.nprocs,
        runner.seed,
        runner.warmup_iterations,
        runner.measured_iterations,
    )


def prime_runner_overhead(
    runner: ChainRunner, store: SimulationMemoStore
) -> None:
    """Load (or memoize) the runner's empty-loop overhead via the store."""
    if not runner.config.subtract_overhead:
        return
    key = _measurement_key(runner, OVERHEAD)
    hit = store.get(key)
    if hit is not None:
        runner.prime_overhead(hit["overhead"])
    else:
        store.put(key, {"overhead": runner.measure_overhead()})


def measure_chain(
    runner: ChainRunner,
    kernels: Sequence[str],
    store: SimulationMemoStore,
) -> Measurement:
    """``runner.measure(kernels)`` with the memo store consulted first.

    Hits reconstruct the post-subtraction :class:`Measurement` (samples +
    overhead) without counters — callers on the prediction path only
    consume ``.mean``, and JSON round-trips the floats exactly.
    """
    bench = runner.benchmark
    key = _measurement_key(runner, kernels)
    hit = store.get(key)
    if hit is not None:
        return Measurement(
            benchmark=bench.name,
            problem_class=bench.size.problem_class,
            nprocs=bench.nprocs,
            kernels=tuple(kernels),
            samples=tuple(hit["samples"]),
            overhead=hit["overhead"],
        )
    measured = runner.measure(kernels)
    store.put(
        key,
        {"samples": list(measured.samples), "overhead": measured.overhead},
    )
    return measured


def run_application(
    runner: ApplicationRunner, store: SimulationMemoStore
) -> float:
    """The application's total time, memoized on its full identity."""
    key = _application_key(runner)
    hit = store.get(key)
    if hit is not None:
        return hit["total_time"]
    total = runner.run().total_time
    store.put(key, {"total_time": total})
    return total


# -- the worker entry points -----------------------------------------------


def _benchmark(spec: CellSpec):
    """The cell's benchmark, once its chain lengths are checked."""
    bench = make_benchmark(spec.benchmark, spec.problem_class, spec.nprocs)
    flow = ControlFlow(bench.loop_kernel_names)
    for length in spec.chain_lengths:
        if not 2 <= length <= len(flow):
            raise ExperimentError(
                f"chain length {length} invalid for {spec.benchmark} "
                f"(flow of {len(flow)})"
            )
    return bench


def missing_measurements(spec: CellSpec) -> list[tuple[Kernels, str]]:
    """The measurements of ``spec``'s cell with no record, and their paths.

    In protocol order: the overhead (when the protocol subtracts it),
    then :func:`cell_measurements`, then the application run. Only the
    record files' existence is checked; a corrupt one is caught and
    healed by the :func:`run_cell` that reads it.
    """
    bench = _benchmark(spec)
    store = SimulationMemoStore(spec.cache_dir)
    runner = ChainRunner(bench, spec.machine, spec.measurement)
    wanted: list[tuple[str, ...]] = cell_measurements(
        bench, spec.chain_lengths
    )
    if spec.measurement.subtract_overhead:
        wanted.insert(0, OVERHEAD)
    records: list[tuple[Kernels, str]] = [
        (kernels, str(store.path_for(_measurement_key(runner, kernels))))
        for kernels in wanted
    ]
    application = ApplicationRunner(
        bench, spec.machine, seed=spec.application_seed
    )
    records.append(
        (APPLICATION, str(store.path_for(_application_key(application))))
    )
    return [(k, path) for k, path in records if not os.path.exists(path)]


@contextmanager
def _observed(spec: CellSpec) -> Iterator[dict[str, Any]]:
    """Profile, time and take obs deltas of one worker call.

    Yields a dict that holds, once the block exits, the ``counters``,
    ``histograms``, ``duration`` and ``profile`` fields of its result.
    """
    profiler = None
    if spec.profile_interval is not None and obs.profiler_active() is None:
        # Thread backend: pool workers may not own a usable ITIMER slot,
        # and the thread sampler behaves identically under fork and spawn.
        profiler = obs.SamplingProfiler(
            interval=spec.profile_interval, backend="thread"
        ).start()
    before = obs.counter_snapshot()
    histograms_before = obs.histogram_snapshot()
    start = time.perf_counter()
    seen: dict[str, Any] = {}
    try:
        yield seen
    finally:
        # Always uninstall, even on a raising call — a pool worker is
        # reused for the next task and must come back profiler-free.
        profile_data = profiler.stop() if profiler is not None else None
    seen.update(
        counters=obs.counter_deltas(before),
        duration=time.perf_counter() - start,
        profile=profile_data.to_dict() if profile_data is not None else None,
        histograms=obs.histogram_deltas(histograms_before),
    )


def measure(spec: CellSpec, kernels: Kernels) -> MeasureResult:
    """Simulate and store one measurement of ``spec``'s cell.

    ``kernels`` is :data:`OVERHEAD`, one entry of
    :func:`cell_measurements`, or :data:`APPLICATION`. A loop measurement
    subtracts the overhead record, so a campaign stores the overhead
    first; a measurement that already has a record simulates nothing.
    """
    store = SimulationMemoStore(spec.cache_dir)
    with _observed(spec) as seen:
        bench = make_benchmark(
            spec.benchmark, spec.problem_class, spec.nprocs
        )
        if kernels is APPLICATION:
            run_application(
                ApplicationRunner(
                    bench, spec.machine, seed=spec.application_seed
                ),
                store,
            )
        else:
            runner = ChainRunner(bench, spec.machine, spec.measurement)
            prime_runner_overhead(runner, store)
            if kernels:
                measure_chain(runner, kernels, store)
    return MeasureResult(memo_stats=store.stats(), **seen)


def run_cell(spec: CellSpec) -> CellResult:
    """Measure one sweep cell, inline or in a pool worker.

    Opens the memo store by path and measures what :func:`cell_inputs`
    enumerates (isolated loop kernels, one-shot pre/post kernels, every
    chain window of every requested length), then the full application.
    A cell whose measurements are all stored runs zero simulations; every
    simulated measurement (and the application run) is stored exactly
    once, so ``memo_stats["stores"]`` is the cell's simulation count.
    The ``worker.cell.stall`` and ``worker.cell.crash`` fault sites fire
    here, for every cell on every path.
    """
    stall = faults.check("worker.cell.stall")
    if stall is not None:
        time.sleep(stall.param)
    if faults.check("worker.cell.crash") is not None:
        raise WorkerCrashError("injected worker crash (worker.cell.crash)")
    store = SimulationMemoStore(spec.cache_dir)
    with _observed(spec) as seen:
        bench = _benchmark(spec)
        runner = ChainRunner(bench, spec.machine, spec.measurement)
        prime_runner_overhead(runner, store)
        with obs.span(
            "parallel.cell",
            benchmark=spec.benchmark,
            cls=spec.problem_class,
            nprocs=spec.nprocs,
        ):
            inputs = cell_inputs(
                bench,
                spec.chain_lengths,
                lambda kernels: measure_chain(runner, kernels, store).mean,
            )
            actual = run_application(
                ApplicationRunner(
                    bench, spec.machine, seed=spec.application_seed
                ),
                store,
            )
    return CellResult(
        benchmark=spec.benchmark,
        problem_class=spec.problem_class,
        nprocs=spec.nprocs,
        chain_lengths=tuple(spec.chain_lengths),
        actual=actual,
        inputs=inputs.to_dict(),
        memo_stats=store.stats(),
        **seen,
    )

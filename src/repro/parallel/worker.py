"""Per-cell campaign work, shaped for cross-process execution.

A sweep cell — one (benchmark, problem class, nprocs) configuration plus
the chain lengths to measure — is described by the frozen, fully picklable
:class:`CellSpec` and executed by the module-level :func:`run_cell`, which
the executor can hand to a ``ProcessPoolExecutor`` directly (REP007 keeps
lambdas and captured locks out of that path). The result travels back as
:class:`CellResult`: plain JSON-ready data (prediction inputs via
:meth:`PredictionInputs.to_dict`), never live runner or machine objects.

:func:`run_cell` is the one way a cell is measured. The experiment
pipeline runs it inline or on a pool
(:func:`repro.parallel.executor.execute_cells`), and the serving engine
runs it on the same :class:`repro.parallel.executor.CellPool`. Every cell
measures through a memo store (:func:`measure_chain`,
:func:`run_application`, :func:`prime_runner_overhead`), so a hit replays
the exact floats a fresh simulation would produce (REP001 determinism),
serial, parallel and warm-cache runs stay bit-identical, and all of them
share one set of seed-keyed measurement records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
from repro.parallel.keys import application_key, measurement_key
from repro.parallel.memo import SimulationMemoStore
from repro.simmachine.machine import MachineConfig

__all__ = [
    "CellSpec",
    "CellResult",
    "run_cell",
    "cell_inputs",
    "measure_chain",
    "run_application",
    "prime_runner_overhead",
]


@dataclass(frozen=True)
class CellSpec:
    """Everything a worker process needs to simulate one sweep cell.

    Deliberately value-only: configs are frozen dataclasses, the memo store
    is referenced by its directory (each run opens its own handle), and
    the fault plan rides along as data: a pool worker runs the cell under
    exactly this plan (see :mod:`repro.parallel.executor`).
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


# -- memo-aware measurement helpers ----------------------------------------


def cell_inputs(
    bench,
    chain_lengths: Sequence[int],
    mean_of: Callable[[tuple[str, ...]], float],
) -> PredictionInputs:
    """A cell's prediction inputs, one ``mean_of(kernels)`` per measurement.

    The single enumeration of what a cell measures, in protocol order:
    isolated loop kernels, one-shot pre/post kernels, then every window of
    every chain length.
    """
    flow = ControlFlow(bench.loop_kernel_names)
    loop_times = {k: mean_of((k,)) for k in flow.names}
    pre = {k: mean_of((k,)) for k in bench.pre_kernel_names}
    post = {k: mean_of((k,)) for k in bench.post_kernel_names}
    chain_times: dict[tuple[str, ...], float] = {}
    for length in chain_lengths:
        for window in flow.windows(length):
            if window not in chain_times:
                chain_times[window] = mean_of(window)
    return PredictionInputs(
        flow=flow,
        iterations=bench.iterations,
        loop_times=loop_times,
        pre_times=pre,
        post_times=post,
        chain_times=chain_times,
    )


def prime_runner_overhead(
    runner: ChainRunner, store: SimulationMemoStore
) -> None:
    """Load (or memoize) the runner's empty-loop overhead via the store."""
    if not runner.config.subtract_overhead:
        return
    bench = runner.benchmark
    key = measurement_key(
        runner.machine_config,
        runner.config,
        bench.name,
        bench.size.problem_class,
        bench.nprocs,
        (),
    )
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
    key = measurement_key(
        runner.machine_config,
        runner.config,
        bench.name,
        bench.size.problem_class,
        bench.nprocs,
        kernels,
    )
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
    bench = runner.benchmark
    key = application_key(
        runner.machine_config,
        bench.name,
        bench.size.problem_class,
        bench.nprocs,
        runner.seed,
        runner.warmup_iterations,
        runner.measured_iterations,
    )
    hit = store.get(key)
    if hit is not None:
        return hit["total_time"]
    total = runner.run().total_time
    store.put(key, {"total_time": total})
    return total


# -- the worker entry point ------------------------------------------------


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
    bench = make_benchmark(spec.benchmark, spec.problem_class, spec.nprocs)
    flow = ControlFlow(bench.loop_kernel_names)
    for length in spec.chain_lengths:
        if not 2 <= length <= len(flow):
            raise ExperimentError(
                f"chain length {length} invalid for {spec.benchmark} "
                f"(flow of {len(flow)})"
            )
    runner = ChainRunner(bench, spec.machine, spec.measurement)
    prime_runner_overhead(runner, store)
    try:
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
    finally:
        # Always uninstall, even on a raising cell — a pool worker is
        # reused for the next cell and must come back profiler-free.
        profile_data = profiler.stop() if profiler is not None else None
    return CellResult(
        benchmark=spec.benchmark,
        problem_class=spec.problem_class,
        nprocs=spec.nprocs,
        chain_lengths=tuple(spec.chain_lengths),
        actual=actual,
        inputs=inputs.to_dict(),
        memo_stats=store.stats(),
        counters=obs.counter_deltas(before),
        duration=time.perf_counter() - start,
        profile=(
            profile_data.to_dict() if profile_data is not None else None
        ),
        histograms=obs.histogram_deltas(histograms_before),
    )

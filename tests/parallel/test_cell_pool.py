"""The cell scheduler's pool: clean workers, exact fault plans, merged obs.

:class:`~repro.parallel.executor.CellPool` forks its workers from a
process whose other threads may hold locks at that moment, runs each task
under exactly the fault plan its spec carries, and folds each completed
task's counters and span histograms into this process exactly once. A
cell function given to it runs as the cell's last task, after the
cell's real measurements.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import faults, obs
from repro.experiments import ExperimentPipeline, ExperimentSettings
from repro.faults import FaultPlan, FaultSpec
from repro.instrument import MeasurementConfig
from repro.parallel.executor import CellPool, execute_cells
from repro.parallel.worker import CellResult, CellSpec, run_cell
from repro.simmachine.machine import ibm_sp_argonne


def _spec(cache_dir, nprocs=4, fault_plan=None) -> CellSpec:
    return CellSpec(
        benchmark="BT",
        problem_class="S",
        nprocs=nprocs,
        chain_lengths=(2,),
        machine=ibm_sp_argonne(),
        measurement=MeasurementConfig(repetitions=1, warmup=0, seed=0),
        cache_dir=str(cache_dir),
        fault_plan=fault_plan,
    )


def report_plan(spec: CellSpec) -> CellResult:
    """A cell that reports the fault plan its worker runs under."""
    injector = faults.get_injector()
    return CellResult(
        benchmark=spec.benchmark,
        problem_class=spec.problem_class,
        nprocs=spec.nprocs,
        chain_lengths=spec.chain_lengths,
        actual=0.0,
        inputs={"plan": injector.plan.to_json() if injector else None},
        memo_stats={},
        counters=(),
        duration=0.0,
    )


def observe_then_maybe_die(flag: str, spec: CellSpec) -> CellResult:
    """Count and time one cell, then die mid-cell while ``flag`` exists."""
    before = obs.counter_snapshot()
    histograms = obs.histogram_snapshot()
    with obs.span("pool.test.cell"):
        obs.get_registry().counter("pool_test_cells").inc()
    if os.path.exists(flag):
        os.remove(flag)
        os.kill(os.getpid(), signal.SIGKILL)
    return CellResult(
        benchmark=spec.benchmark,
        problem_class=spec.problem_class,
        nprocs=spec.nprocs,
        chain_lengths=spec.chain_lengths,
        actual=0.0,
        inputs={},
        memo_stats={},
        counters=obs.counter_deltas(before),
        duration=0.0,
        histograms=obs.histogram_deltas(histograms),
    )


class TestFaultPlans:
    def test_worker_runs_exactly_the_plan_its_spec_carries(self, tmp_path):
        inherited = FaultPlan(specs=(FaultSpec(site="x", every_nth=1),))
        carried = FaultPlan(specs=(FaultSpec(site="y", every_nth=2),), seed=3)
        pool = CellPool(1)
        try:
            with faults.active(inherited):
                [bare, planned, again] = [
                    pool.submit([spec], report_plan)[0].result(timeout=60)
                    for spec in (
                        _spec(tmp_path),
                        _spec(tmp_path, fault_plan=carried),
                        _spec(tmp_path),
                    )
                ]
        finally:
            pool.shutdown()
        assert bare.inputs["plan"] is None
        assert planned.inputs["plan"] == carried.to_json()
        assert again.inputs["plan"] is None


class TestObservability:
    def test_counters_and_span_histograms_merge_once_per_completed_cell(
        self, tmp_path
    ):
        flag = tmp_path / "kill"
        run = functools.partial(observe_then_maybe_die, str(flag))
        pool = CellPool(1)
        try:
            pool.submit([_spec(tmp_path, 1)], run)[0].result(timeout=60)
            flag.write_text("armed")
            with pytest.raises(Exception):
                pool.submit([_spec(tmp_path, 4)], run)[0].result(timeout=60)
            assert not flag.exists()  # the lost attempt really ran
            pool.submit([_spec(tmp_path, 9)], run)[0].result(timeout=60)
        finally:
            pool.shutdown()
        registry = obs.get_registry()
        # Three attempts counted and timed one cell each; the lost one
        # never shipped its deltas.
        assert registry.counter("pool_test_cells").value == 2
        spans = registry.histogram(
            "span_seconds", labels={"name": "pool.test.cell"}
        )
        assert spans.count == 2
        assert spans.max >= spans.min > 0
        assert registry.counter("parallel_worker_respawns").value == 1
        assert pool.respawns == 1


    def test_workers_of_a_profiled_parent_ship_their_own_profiles(
        self, tmp_path
    ):
        # A forked worker must not mistake the parent's profiler, whose
        # sampler thread it does not have, for one of its own.
        specs = [
            dataclasses.replace(
                _spec(tmp_path, n), profile_interval=0.001
            )
            for n in (1, 4)
        ]
        profiler = obs.SamplingProfiler(interval=0.001, backend="thread")
        profiler.start()
        pool = CellPool(2)
        try:
            results = execute_cells(specs, pool)
        finally:
            pool.shutdown()
            profiler.stop()
        assert all(result.profile is not None for result in results)


class TestForkSafety:
    @pytest.mark.timeout(90)
    def test_worker_finishes_while_parent_threads_hold_locks(self, tmp_path):
        """Fork while another thread holds the locks a cell needs.

        The locks are released in this process once the worker exists
        (the pool forks inside the first submit); the worker's copies stay
        held forever, so it must never touch them.
        """
        registry = obs.get_registry()
        counter = registry.counter("sim_runs")
        injector = faults.install(
            FaultPlan(specs=(FaultSpec(site="x", every_nth=1),))
        )
        site_lock = injector._sites["x"].lock
        held = threading.Event()
        release = threading.Event()

        def hold():
            with registry._lock, counter._lock, faults._lock, site_lock:
                held.set()
                release.wait(timeout=60)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert held.wait(timeout=10)
        pool = CellPool(1)
        try:
            [future] = pool.submit([_spec(tmp_path)])
            release.set()
            holder.join(timeout=10)
            result = future.result(timeout=30)
        finally:
            release.set()
            faults.clear()
            for child in multiprocessing.active_children():
                child.terminate()
            pool.shutdown(wait=False)
        assert result.actual > 0
        assert registry.counter("sim_runs").value > 0


class TestOwnerPool:
    """A pipeline keeps one pool for its lifetime, and it ends with it."""

    CHEAP = ExperimentSettings(
        measurement=MeasurementConfig(repetitions=1, warmup=0)
    )

    def test_a_campaign_constructs_one_process_pool(
        self, tmp_path, monkeypatch
    ):
        started = []

        class Counted(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            "repro.parallel.executor.ProcessPoolExecutor", Counted
        )
        pipeline = ExperimentPipeline(
            self.CHEAP, memo=tmp_path / "memo", jobs=2
        )
        try:
            for benchmark, procs in (("BT", [1, 4]), ("SP", [1, 4]),
                                     ("LU", [2, 4])):
                pipeline.sweep(benchmark, "S", procs, chain_lengths=[2])
        finally:
            pipeline.close()
        assert len(started) == 1

    def test_a_dropped_pipeline_leaves_no_worker_process(self, tmp_path):
        before = set(multiprocessing.active_children())
        pipeline = ExperimentPipeline(
            self.CHEAP, memo=tmp_path / "memo", jobs=2
        )
        pipeline.sweep("BT", "S", [1, 4], chain_lengths=[2])
        workers = set(multiprocessing.active_children()) - before
        assert workers  # the pool outlives the sweep
        del pipeline
        gc.collect()
        deadline = time.monotonic() + 30
        while any(worker.is_alive() for worker in workers):
            assert time.monotonic() < deadline, "a worker outlived its pool"
            time.sleep(0.01)


class TestSingleFlight:
    @pytest.mark.timeout(120)
    def test_overlapping_cells_from_many_threads_store_each_record_once(
        self, tmp_path
    ):
        """More workers than CPUs, six submitting threads, fast switching:
        a measurement submitted twice would be stored twice."""
        cache = tmp_path / "memo"
        variants = [
            dataclasses.replace(_spec(cache, nprocs), chain_lengths=lengths)
            for nprocs in (1, 4)
            for lengths in ((2,), (3,), (2, 3))
        ]
        pool = CellPool(3)
        cells: dict = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def submit(t):
                futures = pool.submit(variants[t:] + variants[:t])
                cells[t] = [f.result(timeout=90) for f in futures]

            threads = [
                threading.Thread(target=submit, args=(t,)) for t in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=100)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
            pool.shutdown()
        stores = sum(
            cell.memo_stats["stores"] for done in cells.values() for cell in done
        )
        records = [
            json.loads(path.read_text(encoding="utf-8"))["key"]["kind"]
            for path in cache.glob("*/*.json")
        ]
        assert stores == len(records) > 0
        assert set(records) == {"measurement", "application"}
        serial = {spec: run_cell(dataclasses.replace(
            spec, cache_dir=str(tmp_path / "serial"))) for spec in variants}
        for t, done in cells.items():
            for spec, cell in zip(variants[t:] + variants[:t], done):
                expected = serial[spec]
                assert (cell.actual, cell.inputs) == (
                    expected.actual, expected.inputs
                )

"""REP001 pays off: serial, parallel, and cached runs are bit-identical."""

from __future__ import annotations

import json
import time

import pytest

from repro.experiments import ExperimentPipeline, ExperimentSettings
from repro.instrument import MeasurementConfig
from repro.instrument.runner import ChainRunner
from repro.parallel.executor import execute_cells
from repro.parallel.worker import (
    OVERHEAD,
    CellSpec,
    measure,
    missing_measurements,
    run_cell,
)
from repro.service import PredictRequest, PredictionService

SETTINGS = ExperimentSettings(
    measurement=MeasurementConfig(repetitions=3, warmup=1)
)
PROCS = [1, 4]
CHAINS = [2]


def sweep(**pipeline_kwargs):
    pipeline = ExperimentPipeline(SETTINGS, **pipeline_kwargs)
    return pipeline, pipeline.sweep("BT", "S", PROCS, chain_lengths=CHAINS)


def sim_runs():
    from repro import obs

    return obs.counter_snapshot().get(("sim_runs", ()), 0)


def entries_of(cache, kind):
    """The memo files holding records of one key kind, in a stable order."""
    return sorted(
        path
        for path in cache.glob("*/*.json")
        if json.loads(path.read_text(encoding="utf-8"))["key"]["kind"] == kind
    )


def slow_overhead(spec, kernels):
    """``measure``, with the overhead simulation slow enough to race."""
    if kernels != OVERHEAD:
        return measure(spec, kernels)
    simulate = ChainRunner.measure_overhead

    def slowly(runner):
        time.sleep(0.3)
        return simulate(runner)

    ChainRunner.measure_overhead = slowly
    try:
        return measure(spec, kernels)
    finally:
        ChainRunner.measure_overhead = simulate


def assert_identical(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert (a.benchmark, a.problem_class, a.nprocs) == (
            b.benchmark, b.problem_class, b.nprocs,
        )
        assert a.actual == b.actual
        assert a.summation == b.summation
        for length in CHAINS:
            assert a.coupling_prediction(length) == b.coupling_prediction(
                length
            )
        assert a.inputs == b.inputs
        assert a == b


class TestSerialVsParallel:
    def test_jobs4_matches_jobs1_bit_for_bit(self):
        _, serial = sweep(jobs=1)
        _, parallel = sweep(jobs=4)
        assert_identical(serial, parallel)

    def test_results_come_back_in_proc_count_order(self):
        _, parallel = sweep(jobs=4)
        assert [r.nprocs for r in parallel] == PROCS

    def test_parallel_merges_worker_counters(self):
        from repro import obs

        sweep(jobs=4)
        flushed = [
            c for c in obs.get_registry().collect() if c.name == "sim_events"
        ]
        assert flushed and all(c.value > 0 for c in flushed)


class TestColdParallelSweep:
    """A cold ``jobs=2`` sweep fans out measurements, each simulated once."""

    def test_every_measurement_is_simulated_exactly_once(
        self, tmp_path, monkeypatch
    ):
        serial_pipeline, serial = sweep(memo=tmp_path / "serial", jobs=1)
        assemblies = []

        def assemble(spec):
            before = sim_runs()
            result = run_cell(spec)
            assemblies.append(sim_runs() - before)
            return result

        monkeypatch.setattr("repro.parallel.executor.run_cell", assemble)
        cache = tmp_path / "memo"
        runs = sim_runs()
        pipeline, parallel = sweep(memo=cache, jobs=2)
        assert_identical(serial, parallel)
        # One record per distinct overhead, kernel, window and application
        # key; each was simulated and stored once, and the cell records
        # are the only other stores.
        keys = len(entries_of(cache, "measurement")) + len(
            entries_of(cache, "application")
        )
        assert sim_runs() - runs == keys
        stores = pipeline.memo.stats()["stores"]
        assert stores == keys + len(entries_of(cache, "cell")) == keys + len(
            PROCS
        )
        assert stores == serial_pipeline.memo.stats()["stores"]
        # The parent only assembles each cell from the records.
        assert assemblies == [0] * len(PROCS)

    def test_loop_measurements_wait_for_their_overhead(self, tmp_path):
        spec = CellSpec(
            benchmark="BT",
            problem_class="S",
            nprocs=4,
            chain_lengths=tuple(CHAINS),
            machine=SETTINGS.machine,
            measurement=SETTINGS.measurement,
            cache_dir=str(tmp_path / "memo"),
        )
        keys = len(missing_measurements(spec))
        runs = sim_runs()
        [cell] = execute_cells([spec], jobs=2, _measure=slow_overhead)
        # Had a loop task started before the overhead was stored, it would
        # have simulated and stored the overhead a second time.
        assert sim_runs() - runs == keys
        assert cell.memo_stats["stores"] == keys

    def test_single_cell_matches_its_serial_result(self):
        serial = ExperimentPipeline(SETTINGS, jobs=1).config_result(
            "BT", "S", 4, CHAINS
        )
        parallel = ExperimentPipeline(SETTINGS, jobs=2).config_result(
            "BT", "S", 4, CHAINS
        )
        assert_identical([serial], [parallel])


class TestColdVsWarmMemo:
    def test_cold_and_warm_runs_identical(self, tmp_path):
        cache = tmp_path / "memo"
        _, baseline = sweep()
        cold_pipeline, cold = sweep(memo=cache)
        warm_pipeline, warm = sweep(memo=cache)
        assert_identical(baseline, cold)
        assert_identical(cold, warm)
        assert warm_pipeline.memo.stats()["misses"] == 0
        assert warm_pipeline.memo.stats()["stores"] == 0
        assert warm_pipeline.memo.stats()["hits"] > 0

    def test_parallel_workers_share_the_memo(self, tmp_path):
        cache = tmp_path / "memo"
        _, cold = sweep(memo=cache, jobs=4)
        warm_pipeline, warm = sweep(memo=cache)
        assert_identical(cold, warm)
        assert warm_pipeline.memo.stats()["misses"] == 0

    @pytest.mark.parametrize("kind", ["cell", "measurement"])
    def test_corrupted_entry_self_heals_without_changing_numbers(
        self, tmp_path, kind
    ):
        cache = tmp_path / "memo"
        _, cold = sweep(memo=cache)
        if kind == "measurement":
            # Without cell records the sweep reads per-measurement records.
            for path in entries_of(cache, "cell"):
                path.unlink()
        entries = entries_of(cache, kind)
        assert entries
        victim = entries[0]
        wrapper = json.loads(victim.read_text(encoding="utf-8"))
        wrapper["payload"] = {"samples": [1e9], "overhead": 0.0}
        victim.write_text(json.dumps(wrapper), encoding="utf-8")
        runs = sim_runs()
        healed_pipeline, healed = sweep(memo=cache)
        assert_identical(cold, healed)
        assert healed_pipeline.memo.stats()["corruptions"] == 1
        if kind == "cell":
            # The measurement records answer the cell without simulating.
            assert sim_runs() == runs
        # The purged entry was re-stored intact, and so was every cell
        # record the sweep had to rebuild.
        assert len(entries_of(cache, "cell")) == len(PROCS)
        rerun_pipeline, rerun = sweep(memo=cache)
        assert_identical(cold, rerun)
        assert rerun_pipeline.memo.stats()["corruptions"] == 0


@pytest.mark.timeout(180)
class TestServingMemo:
    def test_warm_cache_dir_serves_without_simulating(self, tmp_path):
        cache = str(tmp_path / "memo")
        request = PredictRequest("BT", "S", 4)
        with PredictionService(
            measurement=MeasurementConfig(repetitions=3, warmup=1),
            cache_dir=cache,
        ) as service:
            first = service.predict(request, timeout=120)
            assert service.stats()["misses"] == 1
        with PredictionService(
            measurement=MeasurementConfig(repetitions=3, warmup=1),
            cache_dir=cache,
        ) as service:
            second = service.predict(request, timeout=120)
            stats = service.stats()
            assert stats["simulations"] == 0
            assert stats["memo"]["hits"] == 1
        assert first.actual == second.actual
        assert first.predictions == second.predictions

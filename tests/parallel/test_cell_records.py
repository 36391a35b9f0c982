"""Memo-first sweeps: one verified cell record per cell, shared with serving."""

from __future__ import annotations

import gc
import json
import tempfile
from pathlib import Path

import pytest

from repro import obs
from repro.core.kernel import ControlFlow
from repro.core.predictor import SummationPredictor
from repro.experiments import ExperimentPipeline, ExperimentSettings
from repro.instrument import MeasurementConfig
from repro.instrument.runner import ApplicationRunner, ChainRunner
from repro.npb import make_benchmark
from repro.service import PredictRequest, PredictionService
from tests.parallel.conftest import count_serialisation

MEASUREMENT = MeasurementConfig(repetitions=3, warmup=1)
SETTINGS = ExperimentSettings(measurement=MEASUREMENT)
PROCS = [1, 4]


def sim_runs():
    return obs.counter_snapshot().get(("sim_runs", ()), 0)


def cell_records(cache):
    """``(nprocs, chain lengths) -> path`` of every cell record."""
    records = {}
    for path in cache.glob("*/*.json"):
        key = json.loads(path.read_text(encoding="utf-8"))["key"]
        if key["kind"] == "cell":
            records[key["nprocs"], tuple(key["chain_lengths"])] = path
    return records


def sweep(cache, benchmark="BT", procs=PROCS, chains=(2,), jobs=1):
    pipeline = ExperimentPipeline(SETTINGS, memo=cache, jobs=jobs)
    return pipeline, pipeline.sweep(
        benchmark, "S", procs, chain_lengths=list(chains)
    )


def assert_same_numbers(results_a, results_b):
    assert [(r.nprocs, r.actual, r.inputs) for r in results_a] == [
        (r.nprocs, r.actual, r.inputs) for r in results_b
    ]


class TestMemoFirstSweep:
    def test_warm_parallel_sweep_starts_no_pool(self, tmp_path, monkeypatch):
        cache = tmp_path / "memo"
        _, cold = sweep(cache, jobs=2)
        assert sorted(cell_records(cache)) == [(p, (2,)) for p in PROCS]

        def no_pool(*args, **kwargs):
            raise AssertionError("a warm sweep must not start a process pool")

        monkeypatch.setattr(
            "repro.experiments.pipeline.execute_cells", no_pool
        )
        runs = sim_runs()
        warm_pipeline, warm = sweep(cache, jobs=2)
        assert sim_runs() == runs
        assert_same_numbers(cold, warm)
        assert warm_pipeline.memo.stats() == {
            "hits": len(PROCS), "misses": 0, "stores": 0, "corruptions": 0,
        }

    def test_one_missing_record_rebuilds_that_cell_alone(self, tmp_path):
        cache = tmp_path / "memo"
        _, cold = sweep(cache)
        cell_records(cache)[4, (2,)].unlink()
        runs = sim_runs()
        pipeline, warm = sweep(cache, jobs=2)
        assert sim_runs() == runs
        assert_same_numbers(cold, warm)
        stats = pipeline.memo.stats()
        # One cell-record miss; the rebuilt cell is the only store.
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["corruptions"] == 0
        assert sorted(cell_records(cache)) == [(p, (2,)) for p in PROCS]

    def test_longer_chains_simulate_only_the_new_windows(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "memo"
        sweep(cache, chains=(2,))
        measured = []
        measure = ChainRunner.measure

        def spy(runner, kernels):
            measured.append((runner.benchmark.nprocs, tuple(kernels)))
            return measure(runner, kernels)

        def no_application(runner):
            raise AssertionError("the application run is memoized")

        monkeypatch.setattr(ChainRunner, "measure", spy)
        monkeypatch.setattr(ApplicationRunner, "run", no_application)
        _, results = sweep(cache, chains=(2, 3))
        flow = ControlFlow(make_benchmark("BT", "S", 1).loop_kernel_names)
        assert sorted(measured) == sorted(
            (p, window) for p in PROCS for window in flow.windows(3)
        )
        for result in results:
            assert set(result.inputs.chain_times) == set(
                flow.windows(2)
            ) | set(flow.windows(3))
        assert sorted(cell_records(cache)) == sorted(
            (p, chains) for p in PROCS for chains in [(2,), (2, 3)]
        )


def private_dirs():
    """The private memo directories that exist now."""
    return set(Path(tempfile.gettempdir()).glob("repro-memo-*"))


class TestMemoLessPipeline:
    """Without ``memo`` a pipeline measures through a private store."""

    def test_growing_a_cell_simulates_only_the_new_windows(
        self, monkeypatch
    ):
        pipeline = ExperimentPipeline(SETTINGS)
        pipeline.config_result("BT", "S", 4, (2,))
        measured = []
        measure = ChainRunner.measure

        def spy(runner, kernels):
            measured.append(tuple(kernels))
            return measure(runner, kernels)

        def no_application(runner):
            raise AssertionError("the application run is memoized")

        monkeypatch.setattr(ChainRunner, "measure", spy)
        monkeypatch.setattr(ApplicationRunner, "run", no_application)
        result = pipeline.config_result("BT", "S", 4, (2, 3))
        flow = ControlFlow(make_benchmark("BT", "S", 4).loop_kernel_names)
        assert sorted(measured) == sorted(flow.windows(3))
        assert result.chain_lengths == (2, 3)
        assert set(result.inputs.chain_times) == set(
            flow.windows(2)
        ) | set(flow.windows(3))
        pipeline.close()

    def test_parallel_sweep_keeps_the_private_store_until_closed(self):
        before = private_dirs()
        pipeline = ExperimentPipeline(SETTINGS, jobs=2)
        root = pipeline.memo.root
        pipeline.sweep("BT", "S", PROCS, chain_lengths=[2])
        # The forked workers wrote into the parent's directory and left
        # it (and only it) in place.
        assert root.is_dir()
        assert sorted(cell_records(root)) == [(p, (2,)) for p in PROCS]
        assert private_dirs() - before == {root}
        pipeline.close()
        assert not root.exists()
        assert not private_dirs() - before

    def test_a_collected_pipeline_leaves_no_directory(self):
        before = private_dirs()
        pipeline = ExperimentPipeline(SETTINGS, jobs=2)
        root = pipeline.memo.root
        results = pipeline.sweep("BT", "S", PROCS, chain_lengths=[2])
        assert root.is_dir()
        del pipeline
        gc.collect()
        assert not root.exists()
        assert not private_dirs() - before
        assert [r.nprocs for r in results] == PROCS


#: The cells a ``campaign-warm`` sweep reads, at a cheap protocol.
CAMPAIGN = (
    ("BT", "W", [4, 9, 16]), ("SP", "W", [4, 9, 16]), ("LU", "W", [2, 4, 8]),
)
CHEAP = ExperimentSettings(
    measurement=MeasurementConfig(repetitions=1, warmup=0)
)


def campaign(cache, jobs):
    pipeline = ExperimentPipeline(CHEAP, memo=cache, jobs=jobs)
    for benchmark, problem_class, procs in CAMPAIGN:
        pipeline.sweep(benchmark, problem_class, procs, chain_lengths=[2, 3])


def chain_spans():
    return obs.get_registry().histogram(
        "span_seconds", labels={"name": "parallel.cell"}
    ).count


class TestWarmSweepCost:
    def test_a_repeat_warm_sweep_parses_one_record_per_cell(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "memo"
        campaign(cache, jobs=1)
        assert chain_spans() > 0
        runs = sim_runs()
        campaign(cache, jobs=2)
        assert sim_runs() == runs
        obs.reset()
        calls = count_serialisation(monkeypatch)
        campaign(cache, jobs=2)
        assert calls == {"canonical_json": 0, "dumps": 0, "loads": 9}
        assert chain_spans() == 0
        assert obs.counter_snapshot()[("parallel_memo_hits", ())] == 9


@pytest.mark.timeout(180)
class TestRecordsCrossPaths:
    """The pipeline and the serving engine read each other's cell records."""

    CASES = [("BT", (2,)), ("LU", (2, 3))]

    def serve(self, cache, benchmark, chains):
        with PredictionService(
            measurement=MEASUREMENT, cache_dir=str(cache)
        ) as service:
            reports = service.predict_many(
                [PredictRequest(benchmark, "S", 4, chain_length=n)
                 for n in chains],
                timeout=120,
            )
            return reports, service.stats()

    @pytest.mark.parametrize("bench,chains", CASES)
    def test_service_records_serve_the_pipeline(
        self, tmp_path, bench, chains
    ):
        cache = tmp_path / "memo"
        self.serve(cache, bench, chains)
        assert sorted(cell_records(cache)) == [(4, chains)]
        runs = sim_runs()
        pipeline, warm = sweep(cache, bench, [4], chains)
        assert sim_runs() == runs
        assert pipeline.memo.stats()["hits"] == 1
        baseline = ExperimentPipeline(SETTINGS).sweep(
            bench, "S", [4], chain_lengths=list(chains)
        )
        assert_same_numbers(baseline, warm)

    @pytest.mark.parametrize("bench,chains", CASES)
    def test_pipeline_records_serve_the_service(
        self, tmp_path, bench, chains
    ):
        cache = tmp_path / "memo"
        _, cold = sweep(cache, bench, [4], chains)
        reports, stats = self.serve(cache, bench, chains)
        assert stats["simulations"] == 0
        assert stats["memo"]["hits"] == 1
        (result,) = cold
        for length, report in zip(chains, reports):
            assert report.actual == result.actual
            assert report.predictions[
                f"Coupling: {length} kernels"
            ] == result.coupling_prediction(length)
            assert report.predictions[
                SummationPredictor.name
            ] == result.summation

    def test_new_seed_simulates_its_own_loop_kernels(self, tmp_path):
        # A seed-1 chain-3 request on a seed-0 chain-2 store has no
        # archive to answer it: its batch measures seed 1's own loop
        # kernels (measurement records are seed-keyed) and writes a pure
        # seed-1 cell record, which the seed-1 pipeline adopts as is.
        cache = tmp_path / "memo"
        with PredictionService(
            measurement=MEASUREMENT, cache_dir=str(cache)
        ) as service:
            for seed, length in ((0, 2), (1, 3)):
                service.predict(
                    PredictRequest("BT", "S", 4, chain_length=length,
                                   seed=seed),
                    timeout=120,
                )
        assert sorted(cell_records(cache)) == [(4, (2,)), (4, (3,))]
        settings = ExperimentSettings(
            measurement=MeasurementConfig(repetitions=3, warmup=1, seed=1)
        )
        runs = sim_runs()
        warm = ExperimentPipeline(settings, memo=cache).sweep(
            "BT", "S", [4], chain_lengths=[3]
        )
        assert sim_runs() == runs
        baseline = ExperimentPipeline(settings).sweep(
            "BT", "S", [4], chain_lengths=[3]
        )
        assert_same_numbers(baseline, warm)

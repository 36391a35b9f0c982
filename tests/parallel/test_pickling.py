"""Everything crossing the pool boundary must pickle cleanly."""

from __future__ import annotations

import pickle

import pytest

from repro import faults
from repro.experiments import ExperimentPipeline, ExperimentSettings
from repro.instrument import MeasurementConfig
from repro.parallel import CellSpec, run_cell
from repro.simmachine import ibm_sp_argonne


def small_spec(cache_dir, **overrides):
    defaults = dict(
        benchmark="BT",
        problem_class="S",
        nprocs=4,
        chain_lengths=(2,),
        machine=ibm_sp_argonne(),
        measurement=MeasurementConfig(repetitions=2, warmup=0),
        application_seed=7,
        cache_dir=str(cache_dir),
    )
    defaults.update(overrides)
    return CellSpec(**defaults)


class TestCellSpec:
    def test_round_trips(self, tmp_path):
        spec = small_spec(tmp_path)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_round_trips_with_fault_plan(self, tmp_path):
        plan = faults.plan_from_specs(
            [{"site": "sim.run.noise", "probability": 0.5, "param": 1.5}],
            seed=3,
        )
        spec = small_spec(tmp_path, fault_plan=plan)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestCellResult:
    def test_round_trips(self, tmp_path):
        result = run_cell(small_spec(tmp_path))
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.inputs == result.inputs


class TestConfigResultPickling:
    @pytest.fixture(scope="class")
    def result(self):
        pipeline = ExperimentPipeline(
            ExperimentSettings(
                measurement=MeasurementConfig(repetitions=2, warmup=0)
            )
        )
        return pipeline.config_result("BT", "S", 4, chain_lengths=[2])

    def test_round_trips_and_compares_equal(self, result):
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.actual == result.actual
        assert clone.inputs == result.inputs

    def test_coupling_cache_not_shipped(self, result):
        result.coupling_prediction(2)  # warm the derived-value memo
        assert result._coupling_cache
        clone = pickle.loads(pickle.dumps(result))
        assert clone._coupling_cache == {}
        # ...and recomputes to the identical value on demand.
        assert clone.coupling_prediction(2) == result.coupling_prediction(2)

    def test_predictions_survive_the_round_trip(self, result):
        clone = pickle.loads(pickle.dumps(result))
        assert clone.summation == result.summation
        assert clone.coupling_prediction(2) == result.coupling_prediction(2)

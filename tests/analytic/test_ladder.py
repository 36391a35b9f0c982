"""The tiered-serving ladder end to end: pipeline, service, memo keys."""

from __future__ import annotations

import pytest

from repro import quick_prediction
from repro.analytic.tiers import POLICIES, TierPolicy
from repro.errors import ExperimentError, PredictionError
from repro.experiments import ExperimentPipeline, ExperimentSettings
from repro.instrument import MeasurementConfig
from repro.parallel.keys import SCHEMA_VERSION, cell_key
from repro.service import PredictionService
from repro.service.engine import PredictRequest
from repro.simmachine.machine import ibm_sp_argonne


def _settings(repetitions=2):
    return ExperimentSettings(
        measurement=MeasurementConfig(repetitions=repetitions, warmup=1)
    )


def _service(**kwargs):
    kwargs.setdefault(
        "measurement", MeasurementConfig(repetitions=2, warmup=1)
    )
    kwargs.setdefault("executor", "inline")
    return PredictionService(**kwargs)


class TestPipelineLadder:
    def test_fast_policy_answers_analytically(self):
        pipeline = ExperimentPipeline(_settings(), tier_policy="fast")
        result = pipeline.config_result("BT", "W", 4, (2,))
        assert result.tier == "analytic"
        assert result.actual > 0
        assert result.coupling_prediction(2) > 0

    def test_exact_policy_is_bit_identical_to_the_pre_ladder_path(self):
        default = ExperimentPipeline(_settings()).config_result(
            "BT", "S", 4, (2,)
        )
        exact = ExperimentPipeline(
            _settings(), tier_policy="exact"
        ).config_result("BT", "S", 4, (2,))
        assert exact.tier == "simulation"
        assert exact.actual == default.actual
        assert exact.inputs == default.inputs

    def test_overlong_chain_escalates_to_simulation(self):
        # BT's flow has 5 loop kernels: the analytic tier declines a
        # 6-kernel chain and the simulation path raises the typed error.
        pipeline = ExperimentPipeline(_settings(), tier_policy="fast")
        with pytest.raises(ExperimentError, match="chain length 6"):
            pipeline.config_result("BT", "S", 4, (6,))

    def test_low_confidence_escalates_to_simulation(self):
        tight = TierPolicy("tight", use_analytic=True, max_rel_error=1e-6)
        pipeline = ExperimentPipeline(_settings(), tier_policy=tight)
        result = pipeline.config_result("BT", "S", 4, (2,))
        assert result.tier == "simulation"

    def test_quick_prediction_carries_the_tier(self):
        fast = quick_prediction("BT", "W", 4, 2, _settings(), tier="fast")
        assert fast.tier == "analytic"
        exact = quick_prediction("BT", "S", 4, 2, _settings(), tier="exact")
        assert exact.tier == "simulation"


class TestServiceLadder:
    def test_fast_policy_serves_analytic_and_counts_it(self):
        with _service(tier_policy="fast") as service:
            report = service.predict(PredictRequest("BT", "W", 4))
            assert report.tier == "analytic"
            repeat = service.predict(PredictRequest("BT", "W", 4))
            assert repeat is report  # L1-cached analytic answer
            stats = service.stats()
        assert stats["tier_requests"]["analytic"] == 2
        assert stats["tier_requests"]["simulation"] == 0
        assert stats["tier_latency_seconds"]["analytic"]["count"] == 2
        assert stats["analytic_escalations"] == 0

    def test_exact_policy_bypasses_the_analytic_tier(self):
        with _service(tier_policy="exact") as service:
            report = service.predict(PredictRequest("BT", "S", 4))
            assert report.tier == "simulation"
            stats = service.stats()
        assert stats["tier_requests"]["analytic"] == 0
        assert stats["tier_requests"]["simulation"] == 1
        assert stats["tier_latency_seconds"]["simulation"]["count"] == 1

    def test_low_confidence_escalates_and_scores_signed_error(self):
        tight = TierPolicy("tight", use_analytic=True, max_rel_error=1e-6)
        with _service(tier_policy=tight) as service:
            report = service.predict(PredictRequest("BT", "S", 4))
            assert report.tier == "simulation"
            stats = service.stats()
        assert stats["analytic_escalations"] == 1
        assert stats["tier_requests"]["simulation"] == 1
        # Ground truth just landed, so the analytic answer was scored
        # against it — live cross-validation of the confidence model.
        signed = stats["analytic_signed_rel_error"]
        assert signed["count"] == 1
        assert abs(signed["mean"]) < 1.0

    def test_overlong_chain_escalates(self):
        with _service(tier_policy="fast") as service:
            with pytest.raises(PredictionError, match="exceeds the BT flow"):
                service.predict(PredictRequest("BT", "S", 4, chain_length=6))
            stats = service.stats()
        assert stats["analytic_escalations"] == 1

    def test_memo_rung_attributes_warm_cells(self, tmp_path):
        cache_dir = str(tmp_path / "memo")
        request = PredictRequest("BT", "S", 4)
        with _service(tier_policy="exact", cache_dir=cache_dir) as service:
            cold = service.predict(request)
            assert cold.tier == "simulation"
        with _service(tier_policy="exact", cache_dir=cache_dir) as warm:
            hit = warm.predict(request)
            assert hit.tier == "memo"
            stats = warm.stats()
        assert stats["tier_requests"]["memo"] == 1
        assert cold.actual == hit.actual  # memoized ground truth, bit-equal

    def test_default_policy_is_exact(self):
        with _service() as service:
            assert service.tier_policy is POLICIES["exact"]


class TestMemoKeyMaterial:
    def test_schema_version_bumped_for_tiered_keys(self):
        assert SCHEMA_VERSION == 2

    def test_cell_key_carries_the_tier(self):
        machine = ibm_sp_argonne()
        measurement = MeasurementConfig(repetitions=2, warmup=1)
        base = cell_key(machine, measurement, "BT", "S", 4, (2,), 7)
        assert base["schema"] == SCHEMA_VERSION
        assert base["tier"] == "simulation"

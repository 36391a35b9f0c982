"""The prediction service engine: caching, coalescing, backpressure."""

import threading

import pytest

from repro.errors import ServiceError, ServiceSaturatedError
from repro.instrument import MeasurementConfig
from repro.service import PredictRequest, PredictionService
from repro.parallel.worker import run_cell

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1)


def make_service(**kwargs):
    kwargs.setdefault("measurement", MEASUREMENT)
    return PredictionService(**kwargs)


class TestPredictRequest:
    def test_normalizes_case(self):
        request = PredictRequest("bt", "s", 4)
        assert request.benchmark == "BT"
        assert request.problem_class == "S"

    def test_key_includes_chain_length_and_seed(self):
        a = PredictRequest("BT", "S", 4, chain_length=2, seed=0)
        b = PredictRequest("BT", "S", 4, chain_length=3, seed=0)
        c = PredictRequest("BT", "S", 4, chain_length=2, seed=1)
        assert len({a.key, b.key, c.key}) == 3
        # …but the same measurement plan group for equal seeds:
        assert a.config_key == b.config_key
        assert a.config_key != c.config_key

    def test_validation(self):
        with pytest.raises(ServiceError, match="unknown benchmark"):
            PredictRequest("XX", "S", 4)
        with pytest.raises(ServiceError, match="unknown problem class"):
            PredictRequest("BT", "Z", 4)
        with pytest.raises(ServiceError, match="nprocs"):
            PredictRequest("BT", "S", 0)
        with pytest.raises(ServiceError, match="chain_length"):
            PredictRequest("BT", "S", 4, chain_length=1)

    def test_dict_roundtrip(self):
        request = PredictRequest("BT", "W", 9, chain_length=3, seed=5)
        assert PredictRequest.from_dict(request.to_dict()) == request

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ServiceError, match="unknown request fields"):
            PredictRequest.from_dict({"benchmark": "BT", "bogus": 1})
        with pytest.raises(ServiceError, match="missing field"):
            PredictRequest.from_dict({"benchmark": "BT"})


class TestServing:
    def test_report_matches_one_shot_prediction(self):
        from repro import quick_prediction
        from repro.experiments import ExperimentSettings

        with make_service(executor="inline", batch_window=0.0) as service:
            served = service.predict(PredictRequest("BT", "S", 4, chain_length=2))
        one_shot = quick_prediction(
            "BT", "S", 4, 2, settings=ExperimentSettings(measurement=MEASUREMENT)
        )
        assert served.actual == pytest.approx(one_shot.actual)
        assert served.predictions == pytest.approx(one_shot.predictions)

    def test_repeat_request_hits_l1(self):
        with make_service(executor="inline", batch_window=0.0) as service:
            request = PredictRequest("BT", "S", 4)
            first = service.predict(request)
            second = service.predict(request)
            assert first == second
            stats = service.stats()
            assert stats["requests"] == 2
            assert stats["l1_hits"] == 1
            assert stats["misses"] == 1
            assert stats["cache_hit_ratio"] == pytest.approx(0.5)

    def test_chain_lengths_share_one_measurement_plan(self):
        with make_service(executor="inline", batch_window=0.05) as service:
            reports = service.predict_many(
                [
                    PredictRequest("BT", "S", 4, chain_length=2),
                    PredictRequest("BT", "S", 4, chain_length=3),
                ]
            )
            assert len(reports) == 2
            assert reports[0].actual == pytest.approx(reports[1].actual)
            stats = service.stats()
            assert stats["batches"] == 1
            assert stats["batch_size"]["max"] == 2.0

    def test_l2_reconstruction_across_restart(self, tmp_path):
        cache = str(tmp_path / "memo")
        request = PredictRequest("BT", "S", 4)
        with make_service(
            cache_dir=cache, executor="inline", batch_window=0.0
        ) as a:
            cold = a.predict(request)
            assert a.stats()["simulations"] > 0
        with make_service(
            cache_dir=cache, executor="inline", batch_window=0.0
        ) as b:
            warm = b.predict(request)
            stats = b.stats()
            assert stats["simulations"] == 0
            assert stats["l2_hits"] == 1
            assert warm == cold

    def test_ttl_expiry_falls_back_to_l2_not_resimulation(self):
        clock_now = [0.0]
        with make_service(
            executor="inline",
            batch_window=0.0,
            cache_ttl=60.0,
            clock=lambda: clock_now[0],
        ) as service:
            request = PredictRequest("BT", "S", 4)
            service.predict(request)
            simulations_cold = service.stats()["simulations"]
            clock_now[0] = 120.0  # L1 entry is stale now
            service.predict(request)
            stats = service.stats()
            assert stats["l1_hits"] == 0
            assert stats["l2_hits"] == 1
            assert stats["simulations"] == simulations_cold

    def test_execution_errors_propagate_and_count(self):
        def explode(spec):
            raise RuntimeError("simulator on fire")

        with make_service(
            executor="inline", batch_window=0.0, execute=explode
        ) as service:
            with pytest.raises(RuntimeError, match="on fire"):
                service.predict(PredictRequest("BT", "S", 4))
            assert service.stats()["errors"] == 1

    def test_closed_service_rejects(self):
        service = make_service(executor="inline", batch_window=0.0)
        service.close()
        from repro.errors import ServiceClosedError

        with pytest.raises(ServiceClosedError):
            service.predict(PredictRequest("BT", "S", 4))


class TestSingleFlight:
    def test_concurrent_identical_requests_simulate_once(self):
        calls = []
        lock = threading.Lock()

        def counting(spec):
            with lock:
                calls.append(spec)
            return run_cell(spec)

        with make_service(
            execute=counting, executor="inline", batch_window=0.05
        ) as service:
            request = PredictRequest("BT", "S", 4)
            results = [None] * 8

            def worker(i):
                results[i] = service.predict(request, timeout=30)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(calls) == 1  # exactly one simulation for 8 requests
            assert all(r == results[0] for r in results)
            stats = service.stats()
            assert stats["coalesced"] == 7
            assert stats["misses"] == 1


class TestBackpressure:
    def test_saturated_service_rejects_with_retry_after(self):
        started = threading.Event()
        release = threading.Event()

        def blocking(spec):
            started.set()
            assert release.wait(timeout=30)
            return run_cell(spec)

        service = make_service(
            execute=blocking,
            executor="inline",
            batch_window=0.0,
            max_workers=1,
            queue_depth=1,
        )
        try:
            first_result = []

            def first():
                first_result.append(
                    service.predict(PredictRequest("BT", "S", 4), timeout=30)
                )

            thread = threading.Thread(target=first)
            thread.start()
            assert started.wait(timeout=10)  # the pool is now saturated
            with pytest.raises(ServiceSaturatedError) as excinfo:
                service.predict(PredictRequest("BT", "S", 1))
            assert excinfo.value.retry_after > 0
            # Identical requests still coalesce instead of being rejected.
            coalesced_before = service.stats()["coalesced"]
            release.set()
            thread.join(timeout=30)
            assert first_result and first_result[0].actual > 0
            stats = service.stats()
            assert stats["rejected"] == 1
            assert stats["coalesced"] == coalesced_before
        finally:
            release.set()
            service.close()

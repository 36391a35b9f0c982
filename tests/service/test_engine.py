"""The prediction service engine: caching, coalescing, backpressure."""

import json
import threading

import pytest

from repro import faults, obs
from repro.errors import (
    InjectedFaultError,
    ServiceClosedError,
    ServiceError,
    ServiceSaturatedError,
)
from repro.faults import FaultPlan, FaultSpec
from repro.instrument import MeasurementConfig
from repro.service import PredictRequest, PredictionService
from repro.parallel.worker import run_cell

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1)


def measured_records(cache) -> int:
    """The measurement and application records in a memo directory."""
    kinds = [
        json.loads(path.read_text(encoding="utf-8"))["key"]["kind"]
        for path in cache.glob("*/*.json")
    ]
    return sum(kind in ("measurement", "application") for kind in kinds)


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

    def test_from_dict_accepts_exact_integers(self):
        for nprocs in (4, 4.0, "4"):
            request = PredictRequest.from_dict(
                {"benchmark": "BT", "problem_class": "S", "nprocs": nprocs}
            )
            assert request.nprocs == 4 and type(request.nprocs) is int

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ServiceError, match="unknown request fields"):
            PredictRequest.from_dict({"benchmark": "BT", "bogus": 1})
        with pytest.raises(ServiceError, match="missing field"):
            PredictRequest.from_dict({"benchmark": "BT"})


class TestServing:
    def test_report_matches_one_shot_prediction(self):
        from repro import quick_prediction
        from repro.experiments import ExperimentSettings

        with make_service(executor="inline") as service:
            served = service.predict(PredictRequest("BT", "S", 4, chain_length=2))
        one_shot = quick_prediction(
            "BT", "S", 4, 2, settings=ExperimentSettings(measurement=MEASUREMENT)
        )
        assert served.actual == pytest.approx(one_shot.actual)
        assert served.predictions == pytest.approx(one_shot.predictions)

    def test_repeat_request_hits_l1(self):
        with make_service(executor="inline") as service:
            request = PredictRequest("BT", "S", 4)
            first = service.predict(request)
            second = service.predict(request)
            assert first == second
            stats = service.stats()
            assert stats["requests"] == 2
            assert stats["l1_hits"] == 1
            assert stats["misses"] == 1
            assert stats["cache_hit_ratio"] == pytest.approx(0.5)

    def test_chain_lengths_share_one_measurement_plan(self, tmp_path):
        cache = tmp_path / "memo"
        with make_service(cache_dir=str(cache), executor="inline") as service:
            reports = service.predict_many(
                [
                    PredictRequest("BT", "S", 4, chain_length=2),
                    PredictRequest("BT", "S", 4, chain_length=3),
                ]
            )
            assert len(reports) == 2
            assert reports[0].actual == pytest.approx(reports[1].actual)
            stats = service.stats()
        # Two cells, and every measurement they share simulated once.
        assert stats["batches"] == 2
        assert stats["simulations"] == measured_records(cache)

    def test_l2_reconstruction_across_restart(self, tmp_path):
        cache = str(tmp_path / "memo")
        request = PredictRequest("BT", "S", 4)
        with make_service(
            cache_dir=cache, executor="inline"
        ) as a:
            cold = a.predict(request)
            assert a.stats()["simulations"] > 0
        with make_service(
            cache_dir=cache, executor="inline"
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
            executor="inline", execute=explode
        ) as service:
            with pytest.raises(RuntimeError, match="on fire"):
                service.predict(PredictRequest("BT", "S", 4))
            assert service.stats()["errors"] == 1

    def test_closed_service_rejects(self):
        service = make_service(executor="inline")
        service.close()

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
            execute=counting, executor="inline"
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


class TestRequestPath:
    """A cold request dispatches its own cell from its own thread."""

    def test_construction_starts_no_thread(self):
        before = set(threading.enumerate())
        with make_service() as service:
            started = set(threading.enumerate()) - before
            assert service.stats()["batches"] == 0
        assert started == set()

    def test_cold_request_dispatches_one_cell_of_one(self):
        with make_service(executor="inline") as service:
            service.predict(PredictRequest("BT", "S", 4), timeout=60)
            stats = service.stats()
        assert stats["batches"] == 1
        assert stats["batch_size"]["count"] == 1
        assert stats["batch_size"]["max"] == 1.0

    def test_a_burst_dispatches_one_cell_per_request(self, tmp_path):
        cache = tmp_path / "memo"
        with make_service(cache_dir=str(cache), executor="inline") as service:
            reports = service.predict_many(
                [
                    PredictRequest("BT", "S", 4, chain_length=2),
                    PredictRequest("BT", "S", 1, chain_length=2),
                    PredictRequest("BT", "S", 4, chain_length=3),
                ],
                timeout=60,
            )
            stats = service.stats()
        assert reports[0].actual == reports[2].actual != reports[1].actual
        assert stats["batches"] == 3
        assert stats["batch_size"]["max"] == 1.0
        assert stats["simulations"] == measured_records(cache)

    def test_dispatch_and_cell_join_the_request_trace(self):
        from repro.service import handle_line

        with make_service(executor="inline") as service:
            handle_line(
                service,
                '{"benchmark": "BT", "problem_class": "S", "nprocs": 4,'
                ' "id": "trace-me"}',
            )
        names = {
            s.name for s in obs.get_tracer().spans()
            if s.trace_id == "trace-me"
        }
        assert {"service.predict", "service.dispatch", "parallel.cell"} <= names

    def test_failed_dispatch_fails_its_flights_and_forgets_them(self):
        burst = [
            PredictRequest("BT", "S", 4, chain_length=2),
            PredictRequest("BT", "S", 4, chain_length=3),
        ]
        fail_once = FaultPlan(
            specs=(
                FaultSpec(
                    site="engine.dispatch.error", every_nth=1, max_fires=1
                ),
            )
        )
        with make_service(executor="inline") as service:
            with faults.active(fail_once):
                outcomes = service.predict_many(
                    burst, timeout=60, return_exceptions=True
                )
                # Each request dispatches its own cell: only the first
                # dispatch fails.
                assert isinstance(outcomes[0], InjectedFaultError)
                assert outcomes[1].actual > 0
                # The failed flight is closed: the retry opens a new one.
                retried = service.predict_many(burst, timeout=60)
            stats = service.stats()
        assert all(r.actual > 0 for r in retried)
        assert stats["errors"] == 1
        assert stats["coalesced"] == 0
        assert stats["batches"] == 2

    def test_close_during_a_cell_still_answers_its_waiter(self):
        started = threading.Event()
        release = threading.Event()

        def blocking(spec):
            started.set()
            assert release.wait(timeout=30)
            return run_cell(spec)

        service = make_service(execute=blocking, executor="inline")
        answers = []
        waiter = threading.Thread(
            target=lambda: answers.append(
                service.predict(PredictRequest("BT", "S", 4), timeout=60)
            )
        )
        waiter.start()
        try:
            assert started.wait(timeout=10)
            closer = threading.Thread(target=service.close)
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive()  # draining the in-flight cell
        finally:
            release.set()
        closer.join(timeout=30)
        waiter.join(timeout=30)
        assert not closer.is_alive() and not waiter.is_alive()
        assert answers and answers[0].actual > 0
        service.close()  # idempotent

    def test_closed_service_rejects_a_burst(self):
        service = make_service(executor="inline")
        service.close()
        outcomes = service.predict_many(
            [PredictRequest("BT", "S", 4)], return_exceptions=True
        )
        assert [type(o) for o in outcomes] == [ServiceClosedError]

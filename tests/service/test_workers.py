"""Worker pool backpressure, worker death, and cell execution."""

import functools
import os
import signal
import sys
import threading
import time

import pytest

from repro import obs
from repro.errors import (
    ServiceClosedError,
    ServiceDegradedError,
    ServiceError,
    ServiceSaturatedError,
    WorkerCrashError,
)
from repro.instrument import MeasurementConfig
from repro.parallel.memo import SimulationMemoStore
from repro.parallel.worker import CellResult, CellSpec, run_cell
from repro.service import PredictRequest, PredictionService
from repro.service.workers import WorkerPool
from repro.simmachine import ibm_sp_argonne
from tests.service.test_engine import measured_records

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1)


def cell_spec(cache_dir=None, chain_lengths=(2,), nprocs=4):
    return CellSpec(
        benchmark="BT",
        problem_class="S",
        nprocs=nprocs,
        chain_lengths=chain_lengths,
        machine=ibm_sp_argonne(),
        measurement=MEASUREMENT,
        cache_dir=None if cache_dir is None else str(cache_dir),
    )


# -- module-level cell functions (pickled into worker processes) -----------


def stub_result(spec, actual):
    return CellResult(
        benchmark=spec.benchmark,
        problem_class=spec.problem_class,
        nprocs=spec.nprocs,
        chain_lengths=spec.chain_lengths,
        actual=actual,
        inputs={},
        memo_stats={},
        counters=(),
        duration=0.0,
    )


def square_nprocs(spec):
    return stub_result(spec, spec.nprocs * spec.nprocs)


def wait_for_gate(gate, spec):
    """Block the worker until the ``gate`` file exists."""
    deadline = time.monotonic() + 30
    while not os.path.exists(gate):
        assert time.monotonic() < deadline, "the gate never opened"
        time.sleep(0.01)
    return stub_result(spec, spec.nprocs)


def crash_in_band(spec):
    raise WorkerCrashError("synthetic death")


def kill_while_armed(flag, spec):
    """SIGKILL the worker while ``flag`` exists (once when ``once``)."""
    if os.path.exists(flag):
        if open(flag).read() == "once":
            os.remove(flag)
        os.kill(os.getpid(), signal.SIGKILL)
    return run_cell(spec)


class TestExecuteCell:
    def test_runs_and_archives_everything(self, tmp_path):
        result = run_cell(cell_spec(tmp_path))
        assert result.actual > 0
        # The overhead, 5 isolated + 2 one-shots + 5 pairs, the application.
        assert result.memo_stats["stores"] == 14
        assert len(SimulationMemoStore(tmp_path)) == 14

    def test_warm_database_runs_zero_simulations(self, tmp_path):
        first = run_cell(cell_spec(tmp_path))
        second = run_cell(cell_spec(tmp_path))
        assert second.memo_stats["stores"] == 0
        assert second.actual == first.actual
        assert second.inputs == first.inputs

    def test_shared_empty_database_is_used_not_replaced(self, tmp_path):
        store = SimulationMemoStore(tmp_path)
        assert len(store) == 0
        run_cell(cell_spec(tmp_path))
        assert len(store) > 0


class TestWorkerPool:
    def test_inline_runs_off_the_calling_thread(self):
        pool = WorkerPool(kind="inline")
        future = pool.submit(lambda x: (x * 2, threading.get_ident()), 21)
        doubled, cell_thread = future.result(timeout=5)
        assert doubled == 42
        assert cell_thread != threading.get_ident()
        pool.shutdown()

    def test_inline_relays_exceptions(self):
        pool = WorkerPool(kind="inline")
        future = pool.submit(lambda _: 1 / 0, None)
        with pytest.raises(ZeroDivisionError):
            future.result(timeout=5)
        pool.shutdown()

    def test_process_pool_runs_work(self, tmp_path):
        # Each stub runs as its cell's last task, after the cell's real
        # measurements.
        pool = WorkerPool(max_workers=2)
        futures = [pool.submit(square_nprocs, cell_spec(tmp_path, nprocs=n))
                   for n in (1, 4, 9)]
        assert [f.result(timeout=60).actual for f in futures] == [1, 16, 81]
        pool.shutdown()

    def test_saturation_rejects_with_retry_after(self, tmp_path):
        gate = str(tmp_path / "gate")
        pool = WorkerPool(kind="inline", queue_depth=2, retry_after=2.5)
        blocked = [
            pool.submit(functools.partial(wait_for_gate, gate), cell_spec())
            for _ in range(2)
        ]
        assert pool.saturated
        with pytest.raises(ServiceSaturatedError) as exc:
            pool.submit(square_nprocs, cell_spec())
        assert exc.value.retry_after == 2.5
        open(gate, "w").close()
        for f in blocked:
            f.result(timeout=30)
        assert not pool.saturated
        pool.shutdown()

    def test_outstanding_drains_after_completion(self):
        pool = WorkerPool(kind="inline", queue_depth=4)
        fut = pool.submit(square_nprocs, cell_spec(nprocs=3))
        assert fut.result(timeout=30).actual == 9
        assert pool.outstanding == 0
        pool.shutdown()

    def test_concurrent_submitters_keep_the_queue_count(self):
        """Eight submitting threads against the cell thread, fast
        switching: a lost update to the outstanding count would leave it
        nonzero."""
        pool = WorkerPool(kind="inline", queue_depth=200)
        results: dict = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def submit_many(t):
                futures = [
                    pool.submit(square_nprocs, cell_spec(nprocs=10 * t + i))
                    for i in range(10)
                ]
                results[t] = [f.result(timeout=60).actual for f in futures]

            threads = [
                threading.Thread(target=submit_many, args=(t,))
                for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
            pool.shutdown()
        assert results == {
            t: [(10 * t + i) ** 2 for i in range(10)] for t in range(8)
        }
        assert pool.outstanding == 0

    def test_closed_pool_rejects(self):
        pool = WorkerPool(kind="inline")
        pool.shutdown()
        with pytest.raises(ServiceClosedError):
            pool.submit(lambda _: None, None)

    def test_validation(self):
        with pytest.raises(ServiceError):
            WorkerPool(max_workers=0)
        with pytest.raises(ServiceError):
            WorkerPool(queue_depth=0)
        with pytest.raises(ServiceError):
            WorkerPool(crash_threshold=0)

    @pytest.mark.parametrize("kind", ["fiber", "thread"])
    def test_invalid_kind_is_rejected(self, kind):
        with pytest.raises(ServiceError, match="process/inline"):
            WorkerPool(kind=kind)

    def test_shutdown_waits_for_in_flight_work(self, tmp_path):
        gate = str(tmp_path / "gate")
        pool = WorkerPool(max_workers=1)
        future = pool.submit(
            functools.partial(wait_for_gate, gate), cell_spec(tmp_path)
        )
        shutter = threading.Thread(target=pool.shutdown, kwargs={"wait": True})
        shutter.start()
        shutter.join(timeout=0.5)
        assert shutter.is_alive()  # blocked on the in-flight cell
        open(gate, "w").close()
        shutter.join(timeout=60)
        assert not shutter.is_alive()
        assert future.result(timeout=0).actual == 4

    def test_shutdown_nowait_returns_immediately(self, tmp_path):
        gate = str(tmp_path / "gate")
        pool = WorkerPool(max_workers=1)
        future = pool.submit(
            functools.partial(wait_for_gate, gate), cell_spec(tmp_path)
        )
        started = time.monotonic()
        pool.shutdown(wait=False)  # must not block on the running cell
        assert time.monotonic() - started < 5
        open(gate, "w").close()
        assert future.result(timeout=60).actual == 4


class TestWorkerHealth:
    def crash(self, _spec):
        raise WorkerCrashError("synthetic death")

    def test_consecutive_crashes_flip_health(self):
        pool = WorkerPool(max_workers=1, kind="inline", crash_threshold=2)
        for expected in (1, 2):
            with pytest.raises(WorkerCrashError):
                pool.submit(self.crash, None).result(timeout=5)
            assert pool.consecutive_crashes == expected
        assert not pool.healthy
        assert pool.crashes == 2
        assert pool.respawns == 2
        pool.shutdown()

    def test_success_restores_health(self):
        pool = WorkerPool(max_workers=1, kind="inline", crash_threshold=1)
        with pytest.raises(WorkerCrashError):
            pool.submit(self.crash, None).result(timeout=5)
        assert not pool.healthy
        pool.submit(lambda _: "ok", None).result(timeout=5)
        assert pool.healthy
        assert pool.consecutive_crashes == 0
        assert pool.crashes == 1  # the total is not reset
        pool.shutdown()

    def test_ordinary_errors_are_not_worker_deaths(self):
        pool = WorkerPool(max_workers=1, kind="inline", crash_threshold=1)
        with pytest.raises(ZeroDivisionError):
            pool.submit(lambda _: 1 / 0, None).result(timeout=5)
        assert pool.healthy
        assert pool.crashes == 0
        pool.shutdown()

    def test_process_pool_counts_crashes_and_respawns(self, tmp_path):
        pool = WorkerPool(max_workers=1, crash_threshold=3)
        futures = [
            pool.submit(crash_in_band, cell_spec(tmp_path)) for _ in range(2)
        ]
        for f in futures:
            with pytest.raises(WorkerCrashError):
                f.result(timeout=60)
        # The worker survived its in-band deaths: accounting only.
        assert pool.crashes == 2
        assert pool.respawns == 2
        assert pool.healthy  # threshold is 3
        assert obs.get_registry().counter("worker_respawns").value == 2
        pool.shutdown()


class TestWorkerDeath:
    """A worker process SIGKILLed mid-cell, as an OOM kill would."""

    def service(self, flag, **kwargs):
        return PredictionService(
            measurement=MEASUREMENT,
            execute=functools.partial(kill_while_armed, str(flag)),
            **kwargs,
        )

    def test_killed_worker_yields_typed_error_then_recovers(self, tmp_path):
        flag = tmp_path / "kill"
        flag.write_text("once")
        request = PredictRequest("BT", "S", 4)
        with self.service(flag) as service:
            with pytest.raises(WorkerCrashError):
                service.predict(request, timeout=60)
            assert not flag.exists()  # the kill really happened
            stats = service.stats()
            assert stats["worker_crashes"] == 1
            assert stats["worker_respawns"] == 1
            assert obs.get_registry().counter("worker_respawns").value == 1
            report = service.predict(request, timeout=60)
            assert report.actual > 0
            assert service.stats()["worker_respawns"] == 1
            assert not service.degraded

    def test_consecutive_deaths_degrade_the_service(self, tmp_path):
        flag = tmp_path / "kill"
        flag.write_text("always")
        with self.service(flag, crash_threshold=2) as service:
            for nprocs in (1, 4):
                request = PredictRequest("BT", "S", nprocs)
                with pytest.raises(WorkerCrashError):
                    service.predict(request, timeout=60)
            assert service.degraded
            with pytest.raises(ServiceDegradedError):
                service.predict(PredictRequest("BT", "S", 9), timeout=60)
            stats = service.stats()
        assert stats["worker_crashes"] == 2
        assert stats["worker_respawns"] == 2


class TestSharedMeasurements:
    """Cold cells on worker processes share their measurements."""

    def test_concurrent_chain_lengths_simulate_each_record_once(
        self, tmp_path
    ):
        cache = tmp_path / "memo"
        requests = [
            PredictRequest("BT", "S", 4, chain_length=n) for n in (2, 3)
        ]
        answers: dict = {}
        with PredictionService(
            measurement=MEASUREMENT, cache_dir=str(cache)
        ) as service:
            start = threading.Barrier(len(requests))

            def ask(request):
                start.wait(timeout=30)
                answers[request.chain_length] = service.predict(
                    request, timeout=120
                )

            threads = [
                threading.Thread(target=ask, args=(request,))
                for request in requests
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=150)
            stats = service.stats()
        assert stats["simulations"] == measured_records(cache)
        with PredictionService(
            measurement=MEASUREMENT, executor="inline"
        ) as serial:
            expected = {
                request.chain_length: serial.predict(request, timeout=120)
                for request in requests
            }
        assert answers == expected

    def test_close_during_a_cold_cell_answers_its_waiter(self, tmp_path):
        cache = tmp_path / "memo"
        service = PredictionService(
            measurement=MEASUREMENT, cache_dir=str(cache)
        )
        answered: list = []

        def ask():
            report = service.predict(PredictRequest("BT", "S", 16), 120)
            answered.append((time.monotonic(), report))

        waiter = threading.Thread(target=ask)
        waiter.start()
        deadline = time.monotonic() + 60
        while not any(cache.glob("*/*.json")):
            assert time.monotonic() < deadline, "the cell never started"
            time.sleep(0.005)
        closing = time.monotonic()
        service.close()
        waiter.join(timeout=60)
        [(at, report)] = answered
        assert at > closing  # the cell was still running at close
        assert report.actual > 0

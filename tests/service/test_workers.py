"""Worker pool backpressure and cell execution."""

import threading

import pytest

from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceSaturatedError,
)
from repro.instrument import MeasurementConfig
from repro.parallel.memo import SimulationMemoStore
from repro.parallel.worker import CellSpec
from repro.service.workers import WorkerPool, simulate_cell
from repro.simmachine import ibm_sp_argonne


def cell_spec(cache_dir, chain_lengths=(2,), nprocs=4):
    return CellSpec(
        benchmark="BT",
        problem_class="S",
        nprocs=nprocs,
        chain_lengths=chain_lengths,
        machine=ibm_sp_argonne(),
        measurement=MeasurementConfig(repetitions=2, warmup=1),
        cache_dir=str(cache_dir),
    )


class TestExecuteCell:
    def test_runs_and_archives_everything(self, tmp_path):
        outcome = simulate_cell(cell_spec(tmp_path))
        assert outcome.actual > 0
        # The overhead, 5 isolated + 2 one-shots + 5 pairs, the application.
        assert outcome.simulations == 14
        assert len(SimulationMemoStore(tmp_path)) == 14

    def test_warm_database_runs_zero_simulations(self, tmp_path):
        first = simulate_cell(cell_spec(tmp_path))
        second = simulate_cell(cell_spec(tmp_path))
        assert second.simulations == 0
        assert second.actual == first.actual
        assert second.inputs == first.inputs

    def test_shared_empty_database_is_used_not_replaced(self, tmp_path):
        store = SimulationMemoStore(tmp_path)
        assert len(store) == 0
        simulate_cell(cell_spec(tmp_path))
        assert len(store) > 0


class TestWorkerPool:
    def test_inline_executes_synchronously(self):
        pool = WorkerPool(kind="inline")
        future = pool.submit(lambda x: x * 2, 21)
        assert future.result(timeout=0) == 42
        pool.shutdown()

    def test_inline_relays_exceptions(self):
        pool = WorkerPool(kind="inline")
        future = pool.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result(timeout=0)
        pool.shutdown()

    def test_thread_pool_runs_work(self):
        pool = WorkerPool(max_workers=2, kind="thread")
        futures = [pool.submit(lambda i=i: i * i) for i in range(5)]
        assert [f.result(timeout=5) for f in futures] == [0, 1, 4, 9, 16]
        pool.shutdown()

    def test_saturation_rejects_with_retry_after(self):
        release = threading.Event()
        pool = WorkerPool(
            max_workers=1, queue_depth=2, kind="thread", retry_after=2.5
        )
        blocked = [pool.submit(release.wait, 10) for _ in range(2)]
        assert pool.saturated
        with pytest.raises(ServiceSaturatedError) as exc:
            pool.submit(lambda: None)
        assert exc.value.retry_after == 2.5
        release.set()
        for f in blocked:
            f.result(timeout=5)
        assert not pool.saturated
        pool.shutdown()

    def test_outstanding_drains_after_completion(self):
        pool = WorkerPool(max_workers=1, queue_depth=4, kind="thread")
        fut = pool.submit(lambda: "done")
        assert fut.result(timeout=5) == "done"
        for _ in range(100):
            if pool.outstanding == 0:
                break
            threading.Event().wait(0.01)
        assert pool.outstanding == 0
        pool.shutdown()

    def test_closed_pool_rejects(self):
        pool = WorkerPool(kind="inline")
        pool.shutdown()
        with pytest.raises(ServiceClosedError):
            pool.submit(lambda: None)

    def test_validation(self):
        with pytest.raises(ServiceError):
            WorkerPool(max_workers=0)
        with pytest.raises(ServiceError):
            WorkerPool(queue_depth=0)
        with pytest.raises(ServiceError):
            WorkerPool(crash_threshold=0)

    @pytest.mark.parametrize("kind", ["fiber", "process"])
    def test_invalid_kind_is_rejected(self, kind):
        with pytest.raises(ServiceError, match="thread/inline"):
            WorkerPool(kind=kind)

    def test_shutdown_waits_for_in_flight_work(self):
        entered = threading.Event()
        release = threading.Event()
        done = []

        def slow():
            entered.set()
            assert release.wait(timeout=10)
            done.append(True)
            return "finished"

        pool = WorkerPool(max_workers=1, kind="thread")
        future = pool.submit(slow)
        assert entered.wait(timeout=5)

        shutter = threading.Thread(target=pool.shutdown, kwargs={"wait": True})
        shutter.start()
        assert shutter.is_alive()  # blocked on the in-flight cell
        release.set()
        shutter.join(timeout=10)
        assert not shutter.is_alive()
        assert future.result(timeout=0) == "finished"
        assert done == [True]

    def test_shutdown_nowait_returns_immediately(self):
        release = threading.Event()
        pool = WorkerPool(max_workers=1, kind="thread")
        pool.submit(release.wait, 10)
        pool.shutdown(wait=False)  # must not block on the running cell
        release.set()


class TestWorkerHealth:
    def crash(self):
        from repro.errors import WorkerCrashError

        raise WorkerCrashError("synthetic death")

    def test_consecutive_crashes_flip_health(self):
        pool = WorkerPool(max_workers=1, kind="inline", crash_threshold=2)
        for expected in (1, 2):
            with pytest.raises(Exception):
                pool.submit(self.crash).result(timeout=0)
            assert pool.consecutive_crashes == expected
        assert not pool.healthy
        assert pool.crashes == 2
        assert pool.respawns == 2
        pool.shutdown()

    def test_success_restores_health(self):
        pool = WorkerPool(max_workers=1, kind="inline", crash_threshold=1)
        with pytest.raises(Exception):
            pool.submit(self.crash).result(timeout=0)
        assert not pool.healthy
        pool.submit(lambda: "ok").result(timeout=0)
        assert pool.healthy
        assert pool.consecutive_crashes == 0
        assert pool.crashes == 1  # the total is not reset
        pool.shutdown()

    def test_ordinary_errors_are_not_worker_deaths(self):
        pool = WorkerPool(max_workers=1, kind="inline", crash_threshold=1)
        with pytest.raises(ZeroDivisionError):
            pool.submit(lambda: 1 / 0).result(timeout=0)
        assert pool.healthy
        assert pool.crashes == 0
        pool.shutdown()

    def test_thread_pool_counts_crashes_and_respawns(self):
        import time as _time

        from repro import obs

        pool = WorkerPool(max_workers=1, kind="thread", crash_threshold=3)
        futures = [pool.submit(self.crash) for _ in range(2)]
        for f in futures:
            with pytest.raises(Exception):
                f.result(timeout=5)
        # _release runs via done-callbacks; give them a beat to land.
        for _ in range(200):
            if pool.crashes == 2:
                break
            _time.sleep(0.005)
        assert pool.crashes == 2
        assert pool.respawns == 2
        assert pool.healthy  # threshold is 3
        assert obs.get_registry().counter("worker_respawns").value == 2
        pool.shutdown()

"""The store rung: archived cells answered on the request thread.

A request whose cell is fully archived in the persistent tier (or in its
own memo cell record) is answered before the degraded/saturation gates
and the batch window; anything missing falls through to the batcher.
"""

import json
import os
import shutil
import socket
import sys
import threading
from pathlib import Path

import pytest

from repro import faults, obs
from repro.core.kernel import ControlFlow
from repro.errors import (
    ServiceDegradedError,
    ServiceSaturatedError,
    WorkerCrashError,
)
from repro.faults import FaultPlan, FaultSpec
from repro.instrument import MeasurementConfig
from repro.instrument.runner import ApplicationRunner, ChainRunner
from repro.npb import make_benchmark
from repro.parallel.worker import cell_inputs
from repro.service import PredictRequest, PredictionService, serve_socket
from repro.service.cache import ACTUAL_KEY
from repro.service.workers import execute_cell

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1)


def make_service(**kwargs):
    kwargs.setdefault("measurement", MEASUREMENT)
    return PredictionService(**kwargs)


def archive(db_path, request=PredictRequest("BT", "S", 4)):
    """Simulate and archive one cell in a throwaway service; its report."""
    with make_service(db_path=str(db_path), batch_window=0.0) as service:
        return service.predict(request, timeout=120)


def corruptions():
    return obs.counter_snapshot().get(("cache_corruption_detected", ()), 0)


class TestArchivedCells:
    def test_answered_without_the_batch_window(self, tmp_path):
        db_path = tmp_path / "measurements.sqlite"
        seed0 = archive(db_path)
        with make_service(db_path=str(db_path), batch_window=30.0) as service:
            report = service.predict(
                PredictRequest("BT", "S", 4, seed=7), timeout=5
            )
            stats = service.stats()
        assert report.tier == "memo"
        assert stats["simulations"] == 0
        assert stats["batches"] == 0
        assert stats["l2_hits"] == 1
        assert report.actual == seed0.actual
        assert report.predictions == seed0.predictions

    def test_longer_chain_batches_only_the_new_windows(
        self, tmp_path, monkeypatch
    ):
        db_path = tmp_path / "measurements.sqlite"
        archive(db_path)
        measured = []
        measure = ChainRunner.measure

        def spy(runner, kernels):
            measured.append(tuple(kernels))
            return measure(runner, kernels)

        def no_application(runner):
            raise AssertionError("the application total is archived")

        monkeypatch.setattr(ChainRunner, "measure", spy)
        monkeypatch.setattr(ApplicationRunner, "run", no_application)
        with make_service(db_path=str(db_path), batch_window=0.0) as service:
            report = service.predict(
                PredictRequest("BT", "S", 4, chain_length=3), timeout=120
            )
            stats = service.stats()
        flow = ControlFlow(make_benchmark("BT", "S", 4).loop_kernel_names)
        assert sorted(measured) == sorted(flow.windows(3))
        assert report.tier == "simulation"
        assert stats["batches"] == 1
        assert stats["simulations"] == len(flow.windows(3))

    def test_replay_writes_no_memo_record(self, tmp_path):
        db_path = tmp_path / "measurements.sqlite"
        seed0 = archive(db_path)
        cache = tmp_path / "memo"
        with make_service(
            db_path=str(db_path), cache_dir=str(cache), batch_window=30.0
        ) as service:
            replayed = service.predict(
                PredictRequest("BT", "S", 4, seed=7), timeout=5
            )
            stats = service.stats()
        assert replayed.tier == "memo"
        assert replayed.predictions == seed0.predictions
        assert stats["l2_hits"] == 1
        assert stats["memo"]["stores"] == 0
        assert [path for path in cache.rglob("*") if path.is_file()] == []

    def test_memo_record_is_written_and_served(self, tmp_path):
        # The dispatcher writes the record of a simulated seed; a replayed
        # seed leaves none (above).
        cache = tmp_path / "memo"
        request = PredictRequest("BT", "S", 4, seed=7)
        with make_service(cache_dir=str(cache), batch_window=0.0) as service:
            simulated = service.predict(request, timeout=120)
            assert service.stats()["memo"]["stores"] == 1
        with make_service(cache_dir=str(cache), batch_window=30.0) as service:
            # An empty sqlite tier: only the memo record can answer.
            served = service.predict(request, timeout=5)
            stats = service.stats()
        assert simulated.tier == "simulation"
        assert served == simulated
        assert stats["memo"]["hits"] == 1
        assert stats["simulations"] == 0

    def test_concurrent_replays_share_the_connection_with_a_writer(
        self, tmp_path
    ):
        # Request threads replay one cell while a worker archives another
        # through the same sqlite connection.
        db_path = tmp_path / "measurements.sqlite"
        seed0 = archive(db_path)
        answers, failures = [], []

        def ask(seed):
            try:
                answers.append(service.predict(
                    PredictRequest("BT", "S", 4, seed=seed), timeout=60
                ))
            except Exception as exc:  # noqa: BLE001 — collected for assert
                failures.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with make_service(db_path=str(db_path)) as service:
                threads = [
                    threading.Thread(
                        target=service.predict,
                        args=(PredictRequest("BT", "S", 1),),
                        kwargs={"timeout": 120},
                    )
                ] + [
                    threading.Thread(target=ask, args=(seed,))
                    for seed in range(1, 9)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                stats = service.stats()
        finally:
            sys.setswitchinterval(switch)
        assert failures == []
        assert len(answers) == 8
        assert all(a.predictions == seed0.predictions for a in answers)
        assert stats["l2_hits"] == 8
        assert stats["misses"] == 1


class TestGates:
    def test_degraded_pool_still_serves_archived_cells(self, tmp_path):
        db_path = tmp_path / "measurements.sqlite"
        with make_service(
            db_path=str(db_path),
            executor="inline",
            batch_window=0.0,
            crash_threshold=2,
            degraded_probe_every=100,
        ) as service:
            seed0 = service.predict(PredictRequest("BT", "S", 4))
            with faults.active(
                FaultPlan(
                    specs=(FaultSpec(site="worker.cell.crash", every_nth=1),)
                )
            ):
                for nprocs in (1, 9):
                    with pytest.raises(WorkerCrashError):
                        service.predict(PredictRequest("BT", "S", nprocs))
            assert service.degraded
            report = service.predict(PredictRequest("BT", "S", 4, seed=7))
            with pytest.raises(ServiceDegradedError):
                service.predict(PredictRequest("BT", "S", 16))
            stats = service.stats()
        assert report.tier == "memo"
        assert report.predictions == seed0.predictions
        assert stats["degraded_rejects"] == 1

    def test_saturated_pool_still_serves_archived_cells(self, tmp_path):
        gate = threading.Event()
        gate.set()
        started = threading.Event()

        def gated(task, database=None):
            started.set()
            assert gate.wait(timeout=30)
            return execute_cell(task, database)

        service = make_service(
            db_path=str(tmp_path / "measurements.sqlite"),
            execute=gated,
            batch_window=0.0,
            max_workers=1,
            queue_depth=1,
        )
        try:
            seed0 = service.predict(PredictRequest("BT", "S", 4), timeout=120)
            gate.clear()
            started.clear()
            blocked = threading.Thread(
                target=service.predict,
                args=(PredictRequest("BT", "S", 1),),
                kwargs={"timeout": 120},
            )
            blocked.start()
            assert started.wait(timeout=10)  # the pool is now saturated
            report = service.predict(PredictRequest("BT", "S", 4, seed=7))
            with pytest.raises(ServiceSaturatedError):
                service.predict(PredictRequest("BT", "S", 9))
            gate.set()
            blocked.join(timeout=60)
            stats = service.stats()
        finally:
            gate.set()
            service.close()
        assert report.tier == "memo"
        assert report.predictions == seed0.predictions
        assert stats["rejected"] == 1


#: Archived chain length per corruption-test cell (class S, 4 ranks).
ARCHIVED_CHAINS = {"BT": 2, "LU": 3}


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """``benchmark -> (db path, seed-0 report)`` of each archived cell."""
    root = tmp_path_factory.mktemp("archives")
    return {
        bench: (
            root / f"{bench}.sqlite",
            archive(
                root / f"{bench}.sqlite",
                PredictRequest(bench, "S", 4, chain_length=length),
            ),
        )
        for bench, length in ARCHIVED_CHAINS.items()
    }


def replayed_rows(bench):
    """Every row a replay of the archived cell reads, in reading order."""
    rows = []

    def record(kernels):
        rows.append(kernels)
        return 1.0

    cell_inputs(make_benchmark(bench, "S", 4), (ARCHIVED_CHAINS[bench],),
                record)
    return rows + [ACTUAL_KEY]


def corrupt_every(nth):
    return FaultPlan(
        specs=(FaultSpec(site="db.read.corrupt", every_nth=nth, max_fires=1),)
    )


def assert_falls_through(tmp_path, archives, bench, row):
    """One corrupt read of ``row`` in a replay: purged, re-measured alone."""
    rows = replayed_rows(bench)
    target = {
        "loop": rows[0],
        "window": next(kernels for kernels in rows if len(kernels) > 1),
        "actual": ACTUAL_KEY,
    }[row]
    db_path = tmp_path / "measurements.sqlite"
    shutil.copyfile(archives[bench][0], db_path)
    seed0 = archives[bench][1]
    with make_service(
        db_path=str(db_path), executor="inline", batch_window=0.0
    ) as service:
        stored = len(service.database)
        with faults.active(corrupt_every(rows.index(target) + 1)):
            report = service.predict(PredictRequest(
                bench, "S", 4, chain_length=ARCHIVED_CHAINS[bench], seed=7
            ))
        stats = service.stats()
        assert len(service.database) == stored
    assert corruptions() == 1
    # The purged row alone was re-measured, through the batcher.
    assert report.tier == "simulation"
    assert stats["simulations"] == 1
    assert stats["batches"] == 1
    assert stats["requests"] == 1
    assert stats["misses"] == 1
    assert stats["l2_hits"] == 0
    assert stats["errors"] == 0
    assert report.actual == seed0.actual
    for name, value in seed0.predictions.items():
        assert report.predictions[name] == pytest.approx(value, rel=0.5)


class TestCorruption:
    @pytest.mark.parametrize("bench", sorted(ARCHIVED_CHAINS))
    def test_one_check_per_replayed_row(self, tmp_path, archives, bench):
        db_path = tmp_path / "measurements.sqlite"
        shutil.copyfile(archives[bench][0], db_path)
        request = PredictRequest(
            bench, "S", 4, chain_length=ARCHIVED_CHAINS[bench], seed=7
        )
        with make_service(db_path=str(db_path), batch_window=30.0) as service:
            with faults.active(corrupt_every(10**9)) as injector:
                report = service.predict(request, timeout=5)
        assert report.tier == "memo"
        assert injector.hits()["db.read.corrupt"] == len(replayed_rows(bench))

    def test_corrupt_row_falls_through_to_one_answer(self, tmp_path, archives):
        assert_falls_through(tmp_path, archives, "BT", "loop")

    @pytest.mark.parametrize("bench,row", [
        ("BT", "window"), ("BT", "actual"),
        ("LU", "loop"), ("LU", "window"), ("LU", "actual"),
    ])
    def test_corrupt_row_at_each_site_falls_through(
        self, tmp_path, archives, bench, row
    ):
        assert_falls_through(tmp_path, archives, bench, row)


def open_handles(path: Path) -> int:
    """File descriptors of this process open on ``path``."""
    count = 0
    for fd in Path("/proc/self/fd").iterdir():
        try:
            count += os.readlink(fd) == str(path)
        except OSError:
            pass
    return count


@pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd"
)
def test_client_connections_share_one_sqlite_handle(tmp_path):
    db_path = tmp_path / "measurements.sqlite"
    archive(db_path)
    service = make_service(db_path=str(db_path))
    ready = threading.Event()
    bound: list = []
    control: list = []
    server = threading.Thread(
        target=serve_socket,
        args=(service,),
        kwargs={"ready": ready, "bound": bound, "control": control},
        daemon=True,
    )
    server.start()
    assert ready.wait(timeout=10)
    try:
        for seed in range(1, 51):
            request = {
                "benchmark": "BT", "problem_class": "S", "nprocs": 4,
                "seed": seed,
            }
            with socket.create_connection(bound[0], timeout=10) as conn:
                conn.sendall(json.dumps(request).encode() + b"\n")
                reply = json.loads(conn.makefile().readline())
            assert reply["ok"] and reply["tier"] == "memo"
        assert service.stats()["l2_hits"] == 50
        assert open_handles(db_path) == 1
    finally:
        control[0].shutdown()
        server.join(timeout=10)
        service.close()

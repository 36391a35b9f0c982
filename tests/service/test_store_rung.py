"""The store rung: archived cells answered on the request thread.

A request whose (machine, protocol, cell, chain length) has an archive
record in the memo store is answered from that one record before the
degraded/saturation gates and any dispatch, at any seed; anything else
falls through to single-flight and a dispatched cell, which then
archives its answer with a create-if-absent write.
"""

import functools
import io
import json
import os
import sys
import threading
import time

import pytest

from repro import faults, obs
from repro.cli import main
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
from repro.parallel.memo import SimulationMemoStore
from repro.service import PredictRequest, PredictionService, WorkerPool
from repro.parallel.worker import run_cell
from repro.simmachine import ibm_sp_argonne, linear_test_machine

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1)


def make_service(**kwargs):
    kwargs.setdefault("measurement", MEASUREMENT)
    return PredictionService(**kwargs)


def archive(cache, request=PredictRequest("BT", "S", 4), **kwargs):
    """Simulate and archive one cell in a throwaway service; its report."""
    with make_service(cache_dir=str(cache), **kwargs) as service:
        return service.predict(request, timeout=120)


def records(cache, kind):
    """Payloads of every ``kind`` record in a memo directory."""
    found = []
    for path in cache.glob("*/*.json"):
        wrapper = json.loads(path.read_text(encoding="utf-8"))
        if wrapper["key"]["kind"] == kind:
            found.append(wrapper["payload"])
    return found


def corruptions():
    return obs.counter_snapshot().get(("cache_corruption_detected", ()), 0)


@pytest.fixture
def store_calls(monkeypatch):
    """Counts of every memo-store read and write, across all instances."""
    calls = {"get": 0, "put": 0, "put_if_absent": 0}
    for name in calls:
        original = getattr(SimulationMemoStore, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SimulationMemoStore, name, counted)
    return calls


class TestArchivedCells:
    def test_answered_without_a_dispatch(
        self, tmp_path, store_calls, monkeypatch
    ):
        cache = tmp_path / "memo"
        seed0 = archive(cache)
        store_calls.update(get=0, put=0, put_if_absent=0)
        submits = []
        submit = WorkerPool.submit

        def counted(pool, *args, **kwargs):
            submits.append(args)
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "submit", counted)
        with make_service(cache_dir=str(cache)) as service:
            report = service.predict(
                PredictRequest("BT", "S", 4, seed=7), timeout=5
            )
            stats = service.stats()
        assert store_calls == {"get": 1, "put": 0, "put_if_absent": 0}
        assert submits == []
        assert report.tier == "memo"
        assert stats["simulations"] == 0
        assert stats["batches"] == 0
        assert stats["l2_hits"] == 1
        assert report.actual == seed0.actual
        assert report.predictions == seed0.predictions

    def test_longer_chain_batches_only_the_new_windows(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "memo"
        archive(cache)
        measured = []
        measure = ChainRunner.measure

        def spy(runner, kernels):
            measured.append(tuple(kernels))
            return measure(runner, kernels)

        def no_application(runner):
            raise AssertionError("the application total is archived")

        monkeypatch.setattr(ChainRunner, "measure", spy)
        monkeypatch.setattr(ApplicationRunner, "run", no_application)
        with make_service(
            cache_dir=str(cache), executor="inline"
        ) as service:
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
        cache = tmp_path / "memo"
        seed0 = archive(cache)
        before = sorted(cache.rglob("*"))
        with make_service(cache_dir=str(cache)) as service:
            replayed = service.predict(
                PredictRequest("BT", "S", 4, seed=7), timeout=5
            )
            stats = service.stats()
        assert replayed.tier == "memo"
        assert replayed.predictions == seed0.predictions
        assert stats["l2_hits"] == 1
        assert stats["memo"]["stores"] == 0
        assert sorted(cache.rglob("*")) == before

    def test_memo_record_is_written_and_served(self, tmp_path):
        # A simulated cell writes its seed's cell record and its chain
        # length's archive record; the archive answers the next service.
        cache = tmp_path / "memo"
        request = PredictRequest("BT", "S", 4, seed=7)
        with make_service(cache_dir=str(cache)) as service:
            simulated = service.predict(request, timeout=120)
            assert service.stats()["memo"]["stores"] == 2
        assert len(records(cache, "cell")) == 1
        assert len(records(cache, "archive")) == 1
        with make_service(cache_dir=str(cache)) as service:
            served = service.predict(request, timeout=5)
            stats = service.stats()
        assert simulated.tier == "simulation"
        assert served == simulated
        assert stats["memo"]["hits"] == 1
        assert stats["simulations"] == 0

    def test_concurrent_reads_race_a_writer(self, tmp_path):
        # Request threads read one cell's archive while a worker archives
        # another cell into the same directory.
        cache = tmp_path / "memo"
        seed0 = archive(cache)
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
            with make_service(cache_dir=str(cache)) as service:
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
    def test_degraded_pool_still_serves_archived_cells(
        self, tmp_path, store_calls
    ):
        with make_service(
            cache_dir=str(tmp_path / "memo"),
            executor="inline",
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
            store_calls.update(get=0, put=0, put_if_absent=0)
            report = service.predict(PredictRequest("BT", "S", 4, seed=7))
            assert store_calls == {"get": 1, "put": 0, "put_if_absent": 0}
            with pytest.raises(ServiceDegradedError):
                service.predict(PredictRequest("BT", "S", 16))
            stats = service.stats()
        assert report.tier == "memo"
        assert report.predictions == seed0.predictions
        assert stats["degraded_rejects"] == 1

    def test_saturated_pool_still_serves_archived_cells(
        self, tmp_path, store_calls
    ):
        gate = threading.Event()
        gate.set()
        started = threading.Event()

        def gated(spec):
            started.set()
            assert gate.wait(timeout=30)
            return run_cell(spec)

        service = make_service(
            cache_dir=str(tmp_path / "memo"),
            execute=gated,
            executor="inline",
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
            store_calls.update(get=0, put=0, put_if_absent=0)
            report = service.predict(PredictRequest("BT", "S", 4, seed=7))
            assert store_calls == {"get": 1, "put": 0, "put_if_absent": 0}
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


def run_cell_together(rendezvous, spec):
    """``run_cell`` once two worker processes have both started a cell."""
    open(os.path.join(rendezvous, str(spec.measurement.seed)), "w").close()
    deadline = time.monotonic() + 30
    while len(os.listdir(rendezvous)) < 2:
        assert time.monotonic() < deadline, "the other cell never started"
        time.sleep(0.01)
    return run_cell(spec)


class TestFirstWriterWins:
    def test_concurrent_batches_leave_one_archive_record(self, tmp_path):
        # Two batches at different seeds simulate the same cell at the same
        # time; both archive, one record survives and answers everyone.
        cache = tmp_path / "memo"
        rendezvous = tmp_path / "rendezvous"
        rendezvous.mkdir()
        with make_service(
            cache_dir=str(cache),
            execute=functools.partial(run_cell_together, str(rendezvous)),
            max_workers=2,
        ) as service:
            racing = service.predict_many(
                [PredictRequest("BT", "S", 4, seed=s) for s in (1, 2)],
                timeout=120,
            )
            stats = service.stats()
            (archived,) = records(cache, "archive")
            assert len(records(cache, "cell")) == 2
            later = [
                service.predict(PredictRequest("BT", "S", 4, seed=s))
                for s in (0, 3, 4)
            ]
        assert stats["batches"] == 2 and stats["misses"] == 2
        assert {r.actual for r in racing + later} == {archived["actual"]}
        assert all(r == racing[0] for r in racing + later)
        with make_service(cache_dir=str(cache)) as service:
            assert service.predict(
                PredictRequest("BT", "S", 4, seed=99), timeout=5
            ) == racing[0]


class TestStaleArchive:
    """A store answers only the machine and protocol that wrote it."""

    def serve(self, args, tmp_path, capsys, monkeypatch):
        line = '{"benchmark": "BT", "problem_class": "S", "nprocs": 4}\n'
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        assert main(["serve", "--workers", "1", *args]) == 0
        (answer, *_) = capsys.readouterr().out.splitlines()
        return json.loads(answer)

    def test_repetition_count_is_part_of_the_archive(
        self, tmp_path, capsys, monkeypatch
    ):
        # Old command lines keep passing --db; it must not share answers
        # across protocols either.
        shared = ["--db", str(tmp_path / "perf.sqlite"),
                  "--cache-dir", str(tmp_path / "memo")]
        self.serve([*shared, "--repetitions", "4"], tmp_path, capsys,
                   monkeypatch)
        second = self.serve([*shared, "--repetitions", "6"], tmp_path,
                            capsys, monkeypatch)
        fresh = self.serve(["--repetitions", "6"], tmp_path, capsys,
                           monkeypatch)
        assert second["tier"] == "simulation"
        assert (second["actual"], second["predictions"]) == (
            fresh["actual"], fresh["predictions"]
        )

    def test_repetitions_in_process(self, tmp_path):
        cache = tmp_path / "memo"
        archive(cache, measurement=MeasurementConfig(repetitions=4))
        with make_service(
            cache_dir=str(cache),
            measurement=MeasurementConfig(repetitions=6),
        ) as service:
            second = service.predict(PredictRequest("BT", "S", 4))
            simulations = service.stats()["simulations"]
        with make_service(
            measurement=MeasurementConfig(repetitions=6)
        ) as service:
            fresh = service.predict(PredictRequest("BT", "S", 4))
        assert simulations > 0
        assert second == fresh

    def test_machine_is_part_of_the_archive(self, tmp_path):
        cache = tmp_path / "memo"
        archive(
            cache,
            machine=ibm_sp_argonne(),
            measurement=MeasurementConfig(repetitions=4),
        )
        linear = dict(
            machine=linear_test_machine(),
            measurement=MeasurementConfig(repetitions=4),
        )
        with make_service(cache_dir=str(cache), **linear) as service:
            second = service.predict(PredictRequest("BT", "S", 4))
            simulations = service.stats()["simulations"]
        with make_service(**linear) as service:
            fresh = service.predict(PredictRequest("BT", "S", 4))
        assert simulations > 0
        assert second.tier == "simulation"
        assert second == fresh


#: Archived chain length per corruption-test cell (class S, 4 ranks).
ARCHIVED_CHAINS = {"BT": 2, "LU": 3}


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """``benchmark -> (memo dir, seed-0 report)`` of each archived cell."""
    root = tmp_path_factory.mktemp("archives")
    return {
        bench: (
            root / bench,
            archive(
                root / bench,
                PredictRequest(bench, "S", 4, chain_length=length),
            ),
        )
        for bench, length in ARCHIVED_CHAINS.items()
    }


def corrupt_every(nth):
    return FaultPlan(
        specs=(FaultSpec(site="db.read.corrupt", every_nth=nth, max_fires=1),)
    )


def copy_store(source, target):
    for path in source.rglob("*.json"):
        destination = target / path.relative_to(source)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_bytes(path.read_bytes())
    return target


class TestCorruption:
    @pytest.mark.parametrize("bench", sorted(ARCHIVED_CHAINS))
    def test_one_check_per_replayed_row(self, tmp_path, archives, bench):
        # A replay now reads one archive record: one fault checkpoint.
        cache = copy_store(archives[bench][0], tmp_path / "memo")
        request = PredictRequest(
            bench, "S", 4, chain_length=ARCHIVED_CHAINS[bench], seed=7
        )
        with make_service(cache_dir=str(cache)) as service:
            with faults.active(corrupt_every(10**9)) as injector:
                report = service.predict(request, timeout=5)
        assert report.tier == "memo"
        assert injector.hits()["db.read.corrupt"] == 1

    def test_corrupt_row_falls_through_to_one_answer(self, tmp_path, archives):
        bench = "BT"
        cache = copy_store(archives[bench][0], tmp_path / "memo")
        seed0 = archives[bench][1]
        request = PredictRequest(
            bench, "S", 4, chain_length=ARCHIVED_CHAINS[bench], seed=7
        )
        with make_service(
            cache_dir=str(cache), executor="inline"
        ) as service:
            with faults.active(corrupt_every(1)):
                report = service.predict(request)
            stats = service.stats()
            # The dispatched cell re-archived it: the next read is a hit.
            again = service.predict(
                PredictRequest(bench, "S", 4,
                               chain_length=ARCHIVED_CHAINS[bench], seed=8)
            )
        assert corruptions() == 1
        assert stats["memo"]["corruptions"] == 1
        # The purged record fell through to a dispatched cell: one answer,
        # simulated at the request's own seed.
        assert report.tier == "simulation"
        assert stats["simulations"] > 0
        assert stats["batches"] == 1
        assert stats["requests"] == 1
        assert stats["misses"] == 1
        assert stats["l2_hits"] == 0
        assert stats["errors"] == 0
        assert report.actual == seed0.actual
        for name, value in seed0.predictions.items():
            assert report.predictions[name] == pytest.approx(value, rel=0.5)
        assert again.tier == "memo" and again == report
        assert len(records(cache, "archive")) == 1

    def test_written_corruption_is_caught_by_the_next_read(self, tmp_path):
        cache = tmp_path / "memo"
        with make_service(
            cache_dir=str(cache), executor="inline"
        ) as service:
            with faults.active(FaultPlan(specs=(
                FaultSpec(site="db.write.corrupt", every_nth=1),
            ))):
                first = service.predict(PredictRequest("BT", "S", 4))
            assert corruptions() == 0
            second = service.predict(PredictRequest("BT", "S", 4, seed=1))
            stats = service.stats()
        assert all(
            abs(value) < 666333.0
            for report in (first, second)
            for value in [report.actual, *report.predictions.values()]
        )
        # The corrupt archive record was purged once and re-archived.
        assert corruptions() >= 1
        assert second.tier == "simulation"
        assert stats["errors"] == 0

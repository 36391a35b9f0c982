"""The fault-injection layer and the degradation machinery it exercises.

Unit coverage for :mod:`repro.faults` (specs, plans, determinism, the
injector) plus per-site integration tests: worker crashes flipping the
service into degraded mode and probes recovering it, request deadlines,
client retry with backoff, memo-store corruption detection, L1 drops,
and the wire-level disconnect/error typing.
"""

import logging
import re
import sys
import threading
from pathlib import Path

import pytest

from repro import errors, faults, obs
from repro.errors import (
    ConfigurationError,
    ServiceDegradedError,
    ServiceSaturatedError,
    ServiceTimeoutError,
    SimulationError,
    WorkerCrashError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.instrument import MeasurementConfig
from repro.parallel.memo import SimulationMemoStore
from repro.service import (
    PredictRequest,
    PredictionService,
    LineClient,
    RetryPolicy,
    error_dict,
    handle_line,
    serve_jsonl,
)
from repro.parallel.worker import run_cell

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1)


def make_service(**kwargs):
    kwargs.setdefault("measurement", MEASUREMENT)
    return PredictionService(**kwargs)


def plan(*specs, seed=0):
    return FaultPlan(specs=tuple(specs), seed=seed)


class TestFaultSpec:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ConfigurationError, match="exactly one trigger"):
            FaultSpec(site="x")
        with pytest.raises(ConfigurationError, match="exactly one trigger"):
            FaultSpec(site="x", probability=0.5, every_nth=2)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            FaultSpec(site="", every_nth=1)
        with pytest.raises(ConfigurationError, match="probability"):
            FaultSpec(site="x", probability=1.5)
        with pytest.raises(ConfigurationError, match="after"):
            FaultSpec(site="x", every_nth=1, after=-1)
        with pytest.raises(ConfigurationError, match="max_fires"):
            FaultSpec(site="x", every_nth=1, max_fires=0)

    def test_dict_roundtrip_rejects_unknown_fields(self):
        spec = FaultSpec(site="x", every_nth=3, after=2, max_fires=5, param=0.1)
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigurationError, match="unknown fault spec"):
            FaultSpec.from_dict({"site": "x", "every_nth": 1, "bogus": 1})


class TestFaultPlan:
    def test_rejects_duplicate_sites(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            plan(
                FaultSpec(site="x", every_nth=1),
                FaultSpec(site="x", probability=0.5),
            )

    def test_json_roundtrip(self):
        original = plan(
            FaultSpec(site="worker.cell.crash", every_nth=3),
            FaultSpec(site="db.read.corrupt", probability=0.25),
            seed=17,
        )
        assert FaultPlan.from_json(original.to_json()) == original

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="invalid fault plan"):
            FaultPlan.from_json("not json")
        with pytest.raises(ConfigurationError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")


class TestDeterminism:
    def test_every_nth_cadence(self):
        p = plan(FaultSpec(site="x", every_nth=3, after=2))
        # hits 0,1 skipped; then every 3rd eligible hit fires.
        assert p.schedule("x", 8) == (
            False, False, False, False, True, False, False, True,
        )

    def test_same_seed_same_schedule(self):
        p = plan(FaultSpec(site="x", probability=0.3), seed=99)
        assert p.schedule("x", 200) == p.schedule("x", 200)

    def test_different_seed_different_schedule(self):
        a = plan(FaultSpec(site="x", probability=0.3), seed=1)
        b = plan(FaultSpec(site="x", probability=0.3), seed=2)
        assert a.schedule("x", 200) != b.schedule("x", 200)

    def test_per_site_streams_are_independent(self):
        # Interleaving checks on another site must not shift x's stream.
        spec_x = FaultSpec(site="x", probability=0.3)
        spec_y = FaultSpec(site="y", probability=0.7)
        solo = plan(spec_x, seed=5).schedule("x", 100)
        mixed = FaultInjector(plan(spec_x, spec_y, seed=5), record_metrics=False)
        interleaved = []
        for _ in range(100):
            mixed.check("y")
            interleaved.append(mixed.check("x") is not None)
        assert tuple(interleaved) == solo

    def test_max_fires_caps_total(self):
        p = plan(FaultSpec(site="x", every_nth=1, max_fires=2))
        assert p.schedule("x", 5) == (True, True, False, False, False)

    def test_schedule_is_pure(self):
        p = plan(FaultSpec(site="x", probability=0.5), seed=3)
        first = p.schedule("x", 50)
        # Consuming the schedule must not advance any shared stream.
        assert p.schedule("x", 50) == first


class TestInjector:
    def test_check_is_inert_without_a_plan(self):
        assert faults.get_injector() is None
        assert faults.check("worker.cell.crash") is None

    def test_active_scopes_installation(self):
        p = plan(FaultSpec(site="x", every_nth=1))
        with faults.active(p) as injector:
            assert faults.check("x") is not None
            assert injector.fires() == {"x": 1}
            assert injector.hits() == {"x": 1}
        assert faults.check("x") is None

    def test_fires_update_the_obs_counter(self):
        with faults.active(plan(FaultSpec(site="x", every_nth=2))) as injector:
            for _ in range(6):
                faults.check("x")
            assert injector.fires() == {"x": 3}
            counter = obs.get_registry().counter("fault_injected", site="x")
            assert counter.value == 3

    def test_thread_safety_of_hit_accounting(self):
        p = plan(FaultSpec(site="x", every_nth=4))
        with faults.active(p) as injector:
            def hammer():
                for _ in range(250):
                    faults.check("x")

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert injector.hits() == {"x": 1000}
            assert injector.fires() == {"x": 250}


class TestDegradedMode:
    def crash_service(self, **kwargs):
        return make_service(
            executor="inline",
            crash_threshold=2,
            degraded_probe_every=3,
            **kwargs,
        )

    def test_consecutive_crashes_degrade_then_probe_recovers(self):
        with self.crash_service() as service:
            request = PredictRequest("BT", "S", 4)
            warm = service.predict(request)  # healthy warm-up, fills L1
            with faults.active(
                plan(FaultSpec(site="worker.cell.crash", every_nth=1))
            ):
                for nprocs in (1, 9):
                    with pytest.raises(WorkerCrashError):
                        service.predict(PredictRequest("BT", "S", nprocs))
                assert service.degraded
                assert not service.pool.healthy
                # Cached reports still serve in degraded mode.
                assert service.predict(request) == warm
                # Misses are rejected with the typed degraded error...
                with pytest.raises(ServiceDegradedError):
                    service.predict(PredictRequest("BT", "S", 16))
                with pytest.raises(ServiceDegradedError):
                    service.predict(PredictRequest("BT", "S", 16))
                # ...until the probe lets one through — still crashing here.
                with pytest.raises(WorkerCrashError):
                    service.predict(PredictRequest("BT", "S", 16))
                assert service.degraded
            # Fault cleared: reject, reject, then the probe succeeds and
            # restores full (non-degraded) service.
            raised = 0
            report = None
            for _ in range(3):
                try:
                    report = service.predict(PredictRequest("BT", "S", 25))
                except ServiceDegradedError:
                    raised += 1
            assert raised == 2 and report is not None
            assert not service.degraded
            stats = service.stats()
            assert stats["degraded_rejects"] == 4
            assert stats["worker_crashes"] == 3
            assert stats["worker_respawns"] == 3
            assert obs.get_registry().counter("worker_respawns").value == 3

    def test_degraded_flag_reaches_single_and_array_lines(self):
        import json

        with self.crash_service() as service:
            wire = {"benchmark": "BT", "problem_class": "S", "nprocs": 4}
            service.predict(PredictRequest.from_dict(wire))  # fills L1
            with faults.active(
                plan(FaultSpec(site="worker.cell.crash", every_nth=1))
            ):
                for nprocs in (1, 9):
                    with pytest.raises(WorkerCrashError):
                        service.predict(PredictRequest("BT", "S", nprocs))
                assert service.degraded
                single = json.loads(handle_line(service, json.dumps(wire)))
                array = json.loads(handle_line(service, json.dumps([wire])))
            assert single["ok"] and single["degraded"] is True
            (item,) = array["results"]
            assert item["ok"] and item["degraded"] is True
            assert item["actual"] == single["actual"]

    def test_worker_processes_run_the_installed_plan(self):
        # The engine ships the installed plan with each cell spec, and a
        # worker process runs the cell under it.
        with make_service() as service:
            with faults.active(
                plan(FaultSpec(site="worker.cell.crash", every_nth=1))
            ):
                with pytest.raises(WorkerCrashError):
                    service.predict(PredictRequest("BT", "S", 4), timeout=60)
            report = service.predict(PredictRequest("BT", "S", 4), timeout=60)
            stats = service.stats()
        assert report.actual > 0
        assert stats["worker_crashes"] == 1

    def test_success_resets_consecutive_crash_count(self):
        with self.crash_service() as service:
            with faults.active(
                plan(FaultSpec(site="worker.cell.crash", every_nth=1, max_fires=1))
            ):
                with pytest.raises(WorkerCrashError):
                    service.predict(PredictRequest("BT", "S", 4))
                assert service.pool.consecutive_crashes == 1
                service.predict(PredictRequest("BT", "S", 1))
                assert service.pool.consecutive_crashes == 0
                assert not service.degraded


class TestTimeouts:
    def test_deadline_raises_typed_timeout(self):
        release = threading.Event()

        def blocking(spec):
            assert release.wait(timeout=30)
            return run_cell(spec)

        service = make_service(
            execute=blocking,
            executor="inline",
            default_timeout=0.05,
        )
        try:
            with pytest.raises(ServiceTimeoutError) as excinfo:
                service.predict(PredictRequest("BT", "S", 4))
            assert excinfo.value.timeout == 0.05
            assert service.stats()["timeouts"] == 1
            assert obs.get_registry().counter("request_timeout").value == 1
        finally:
            release.set()
            service.close()

    def test_explicit_timeout_overrides_default(self):
        release = threading.Event()

        def blocking(spec):
            assert release.wait(timeout=30)
            return run_cell(spec)

        service = make_service(
            execute=blocking,
            executor="inline",
            default_timeout=300.0,
        )
        try:
            with pytest.raises(ServiceTimeoutError):
                service.predict(PredictRequest("BT", "S", 4), timeout=0.05)
        finally:
            release.set()
            service.close()

    def test_validation(self):
        with pytest.raises(Exception, match="default_timeout"):
            make_service(executor="inline", default_timeout=0)


class TestRetryPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.1, max_delay=0.25, jitter=0.5, seed=7
        )
        first = list(policy.delays())
        assert first == list(policy.delays())
        assert len(first) == 3
        bases = [0.1, 0.2, 0.25]
        for delay, base in zip(first, bases):
            assert base <= delay <= base * 1.5

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="jitter"):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ConfigurationError, match="delays"):
            RetryPolicy(base_delay=-1)


REQUEST = {"benchmark": "BT", "problem_class": "S", "nprocs": 4}

#: Wire error types a client retries; every other error reply is final.
TRANSIENT = ("ServiceSaturatedError", "WorkerCrashError")


def documented_error_types():
    """The exception column of the error table in ``docs/API.md``."""
    api_md = Path(__file__).resolve().parents[2] / "docs" / "API.md"
    text = api_md.read_text(encoding="utf-8")
    table = text.split("| Exception | Wire `error_type` |", 1)[1]
    names = re.findall(r"^\| `(\w+)` \|", table.split("\n\n", 1)[0], re.M)
    assert names, "docs/API.md lost its error table"
    return names


class ScriptedReplies:
    """``LineClient.request`` stand-in: ``failures`` copies of one error
    reply, then an ok reply."""

    def __init__(self, failures, exc):
        self.failures = failures
        self.reply = error_dict(exc)
        self.calls = 0

    def __call__(self, payload):
        self.calls += 1
        if self.calls <= self.failures:
            return dict(self.reply)
        return {"ok": True}


def scripted_client(replies, sleep=lambda _s: None, **policy):
    client = LineClient(
        "127.0.0.1", 0, retry=RetryPolicy(**policy), sleep=sleep
    )
    client.request = replies
    return client


class TestClientRetry:
    def test_retries_saturation_with_backoff_honoring_hint(self):
        slept = []
        replies = ScriptedReplies(
            2, ServiceSaturatedError("full", retry_after=0.2)
        )
        client = scripted_client(
            replies, slept.append, max_attempts=3, base_delay=0.01, jitter=0.0
        )
        assert client.predict(REQUEST) == {"ok": True}
        assert replies.calls == 3
        # retry_after=0.2 dominates both computed backoff delays.
        assert slept == [0.2, 0.2]
        assert obs.get_registry().counter("retry_attempts").value == 2

    def test_retries_worker_crashes(self):
        replies = ScriptedReplies(1, WorkerCrashError("died"))
        client = scripted_client(replies, max_attempts=2)
        assert client.predict(REQUEST) == {"ok": True}
        assert replies.calls == 2

    def test_exhausted_attempts_return_the_last_reply(self):
        replies = ScriptedReplies(99, WorkerCrashError("died"))
        client = scripted_client(replies, max_attempts=3)
        assert client.predict(REQUEST) == error_dict(WorkerCrashError("died"))
        assert replies.calls == 3

    def test_timeouts_and_degraded_are_not_retried(self):
        for exc in (
            ServiceTimeoutError("late", timeout=1.0),
            ServiceDegradedError("degraded"),
        ):
            replies = ScriptedReplies(1, exc)
            client = scripted_client(replies, max_attempts=5)
            assert client.predict(REQUEST)["error_type"] == type(exc).__name__
            assert replies.calls == 1

    @pytest.mark.parametrize("name", documented_error_types())
    def test_documented_error_keeps_its_type_and_retry_class(self, name):
        exc = getattr(errors, name)("boom")
        assert error_dict(exc)["error_type"] == name
        replies = ScriptedReplies(1, exc)
        scripted_client(replies, max_attempts=2).predict(REQUEST)
        assert replies.calls == (2 if name in TRANSIENT else 1)

    def test_retry_logs_client_retry(self, caplog):
        caplog.set_level(logging.INFO, logger="repro")
        replies = ScriptedReplies(
            1, ServiceSaturatedError("full", retry_after=0.2)
        )
        client = scripted_client(
            replies, max_attempts=2, base_delay=0.01, jitter=0.0
        )
        client.predict(REQUEST)
        (line,) = [
            record.getMessage() for record in caplog.records
            if record.getMessage().startswith("client.retry")
        ]
        assert "error=ServiceSaturatedError" in line
        assert "delay=0.2" in line


def sample_key(nprocs=4):
    return {"kind": "measurement", "benchmark": "BT", "nprocs": nprocs}


SAMPLE = {"samples": [1.0, 1.1, 0.9], "overhead": 0.01}


def corruption_count():
    return obs.get_registry().counter("cache_corruption_detected").value


class TestDatabaseIntegrity:
    """The ``db.*.corrupt`` sites on the memo store, the one persistent tier."""

    def test_read_corruption_is_detected_purged_and_counted(self, tmp_path):
        store = SimulationMemoStore(tmp_path)
        store.put(sample_key(), SAMPLE)
        with faults.active(
            plan(FaultSpec(site="db.read.corrupt", every_nth=1, max_fires=1))
        ):
            assert store.get(sample_key()) is None  # corrupted read → miss
        assert corruption_count() == 1
        assert len(store) == 0  # the bad record was purged
        # Re-measuring after the purge works again.
        store.put(sample_key(), SAMPLE)
        assert store.get(sample_key()) == SAMPLE

    def test_write_corruption_self_heals_via_retry(self, tmp_path):
        store = SimulationMemoStore(tmp_path)
        with faults.active(
            plan(FaultSpec(site="db.write.corrupt", every_nth=1, max_fires=1))
        ):
            # The writer keeps its pristine payload; the disk copy rots
            # under an honest checksum.
            assert store.put_if_absent(sample_key(), SAMPLE) == SAMPLE
        assert corruption_count() == 0
        assert store.get(sample_key()) is None  # detected on read
        assert corruption_count() == 1
        assert store.put_if_absent(sample_key(), SAMPLE) == SAMPLE
        assert store.get(sample_key()) == SAMPLE
        assert len(store) == 1

    def test_concurrent_writers_heal_a_write_and_a_read_corruption(
        self, tmp_path
    ):
        # Writers of one key race through write and read-back corruption;
        # every call must still return a verified (never tampered) payload.
        store = SimulationMemoStore(tmp_path)
        returned, failures = [], []

        def write(key):
            try:
                returned.append(store.put_if_absent(key, SAMPLE))
            except Exception as exc:  # noqa: BLE001 — collected for assert
                failures.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with faults.active(
                plan(
                    FaultSpec(site="db.write.corrupt", every_nth=5),
                    FaultSpec(site="db.read.corrupt", every_nth=7),
                )
            ):
                for nprocs in range(1, 61):
                    writers = [
                        threading.Thread(
                            target=write, args=(sample_key(nprocs),)
                        )
                        for _ in range(4)
                    ]
                    for writer in writers:
                        writer.start()
                    for writer in writers:
                        writer.join(timeout=30)
                    assert not any(w.is_alive() for w in writers)
        finally:
            sys.setswitchinterval(switch)
        assert failures == []
        assert len(returned) == 240
        assert all(payload == SAMPLE for payload in returned)

    def test_one_record_per_key_under_racing_writers(self, tmp_path):
        store = SimulationMemoStore(tmp_path)
        winners = []
        start = threading.Barrier(8, timeout=30)

        def write(value):
            start.wait()
            winners.append(store.put_if_absent(sample_key(), {"v": value}))

        threads = [
            threading.Thread(target=write, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(store) == 1
        assert store.stats()["stores"] == 1
        assert winners == [store.get(sample_key())] * 8


class TestCacheDrop:
    def test_l1_drop_forces_recompute_not_garbage(self):
        with make_service(executor="inline") as service:
            request = PredictRequest("BT", "S", 4)
            first = service.predict(request)
            with faults.active(
                plan(FaultSpec(site="cache.l1.drop", every_nth=1, max_fires=1))
            ):
                second = service.predict(request)
            # Recomputed (L2 replay), never a stale/corrupt object.
            assert second == first
            stats = service.stats()
            assert stats["l1_hits"] == 0
            assert stats["l2_hits"] == 1


class TestSimulatorFaults:
    def test_sim_run_error_raises_simulation_error(self):
        from repro.simmachine.engine import Simulator

        with faults.active(plan(FaultSpec(site="sim.run.error", every_nth=1))):
            with pytest.raises(SimulationError, match="injected"):
                Simulator().run()


class TestWireProtocol:
    def test_error_dict_carries_error_type(self):
        payload = error_dict(ServiceSaturatedError("full", retry_after=1.5))
        assert payload["ok"] is False
        assert payload["error_type"] == "ServiceSaturatedError"
        assert payload["retry_after"] == 1.5
        degraded = error_dict(ServiceDegradedError("cache only"))
        assert degraded["error_type"] == "ServiceDegradedError"
        assert degraded["degraded"] is True

    def test_disconnect_drops_the_response_and_counts(self):
        import io
        import json

        with make_service(executor="inline") as service:
            lines = [
                json.dumps({"benchmark": "BT", "problem_class": "S", "nprocs": 4}),
                json.dumps({"benchmark": "BT", "problem_class": "S", "nprocs": 4}),
            ]
            out = io.StringIO()
            with faults.active(
                plan(FaultSpec(site="api.disconnect", every_nth=1, max_fires=1))
            ):
                serve_jsonl(service, lines, out)
            responses = [
                json.loads(line) for line in out.getvalue().splitlines()
            ]
            # First response vanished with the "client"; second delivered.
            assert len(responses) == 1
            assert responses[0]["ok"] is True
            counter = obs.get_registry().counter("client_disconnects")
            assert counter.value == 1

"""Frontend battery: routing, admission, aggregation, failover.

Runs the real wire path — the shard router behind ``serve_socket``, TCP,
JSONL shard servers — with :class:`InProcessShardManager` shards so tests
can inject execute hooks and reach into shard services, while exercising
exactly the routing/admission/merge logic that fronts the process fleet.
"""

from __future__ import annotations

import json
import socket
import sys
import threading

import pytest

from repro import obs
from repro.instrument import MeasurementConfig
from repro.service import (
    InProcessShardManager,
    LineClient,
    PredictionService,
    RetryPolicy,
)
from tests.chaos.harness import serve_router, synthetic_execute


def _factory(shard_id, execute=synthetic_execute, **kwargs):
    defaults = dict(
        measurement=MeasurementConfig(repetitions=2, warmup=1, seed=0),
        max_workers=2,
        batch_window=0.001,
        execute=execute,
        shard_id=shard_id,
    )
    defaults.update(kwargs)
    return PredictionService(**defaults)


def _request(nprocs=4, chain_length=2, benchmark="BT", **extra):
    payload = {
        "benchmark": benchmark,
        "problem_class": "S",
        "nprocs": nprocs,
        "chain_length": chain_length,
    }
    payload.update(extra)
    return payload


@pytest.fixture
def fleet():
    """Three in-process shards behind a running frontend, plus a client."""
    manager = InProcessShardManager(
        [lambda i=i: _factory(i) for i in range(3)]
    )
    manager.start()
    try:
        with serve_router(manager) as (router, (host, port)):
            with LineClient(host, port) as client:
                yield manager, router, client
    finally:
        manager.stop()


def test_round_trip_with_correlation_id(fleet):
    _, _, client = fleet
    response = client.predict(_request(id="corr-42"))
    assert response["ok"]
    assert response["id"] == "corr-42"
    assert "predictions" in response and "actual" in response


def test_routing_is_deterministic_and_spreads_cells(fleet):
    manager, _, client = fleet
    for _ in range(5):
        assert client.predict(_request(nprocs=9))["ok"]
    # one cell -> exactly one shard saw requests for it
    owners = [
        shard_id
        for shard_id in manager.shard_ids
        if manager.service(shard_id).stats()["requests"] > 0
    ]
    assert len(owners) == 1
    # many distinct cells -> more than one shard participates
    for nprocs in (1, 4, 16, 25, 36, 49):
        for benchmark in ("BT", "SP"):
            assert client.predict(_request(nprocs, benchmark=benchmark))["ok"]
    for nprocs in (2, 8, 32):
        assert client.predict(_request(nprocs, benchmark="LU"))["ok"]
    touched = [
        shard_id
        for shard_id in manager.shard_ids
        if manager.service(shard_id).stats()["requests"] > 0
    ]
    assert len(touched) >= 2


def test_batch_reassembles_in_request_order(fleet):
    _, _, client = fleet
    items = [
        _request(nprocs, benchmark=benchmark, id=f"b-{i}")
        for i, (benchmark, nprocs) in enumerate(
            [("BT", 1), ("SP", 4), ("LU", 8), ("BT", 16), ("SP", 25)]
        )
    ]
    response = client.request(items)
    assert response["ok"]
    results = response["results"]
    assert [r["id"] for r in results] == [item["id"] for item in items]
    for item, result in zip(items, results):
        assert result["ok"]
        assert result["request"]["nprocs"] == item["nprocs"]
    # a malformed batch item degrades that slot only
    mixed = client.request([_request(id="good"), 17])
    assert mixed["results"][0]["ok"]
    assert not mixed["results"][1]["ok"]
    assert mixed["results"][1]["error_type"] == "ReproError"


def test_stats_nests_frontend_and_shard_views(fleet):
    manager, _, client = fleet
    assert client.predict(_request())["ok"]
    stats = client.stats()["stats"]
    assert stats["frontend"]["requests"] == 1
    assert stats["frontend"]["live_shards"] == 3
    assert sorted(stats["shards"]) == [str(s) for s in manager.shard_ids]
    assert sum(doc["requests"] for doc in stats["shards"].values()) == 1
    for shard_id, doc in stats["shards"].items():
        assert doc["shard"] == int(shard_id)


def test_metrics_merge_shard_counters_across_the_hop(fleet):
    _, _, client = fleet
    for nprocs in (1, 4, 9):
        assert client.predict(_request(nprocs))["ok"]
    first = client.request({"cmd": "metrics"})
    assert first["ok"]
    assert first["metrics"]["service_requests"] == 3
    # deltas, not snapshots: a second scrape must not double-count
    for nprocs in (16, 25):
        assert client.predict(_request(nprocs))["ok"]
    second = client.request({"cmd": "metrics"})
    assert second["metrics"]["service_requests"] == 5
    assert 'service_requests_total 5' in second["prometheus"]


def test_slo_report_merges_shards_and_judges_frontend(fleet):
    _, _, client = fleet
    for nprocs in (1, 4, 9, 16):
        assert client.predict(_request(nprocs))["ok"]
    report = client.request({"cmd": "slo"})["slo"]
    assert set(report) >= {"overall", "objectives", "shards", "frontend"}
    assert report["overall"]["requests"] == 4
    names = {objective["name"] for objective in report["objectives"]}
    assert "availability" in names
    front = report["frontend"]
    assert front["name"] == "frontend.availability"
    assert front["total"] == 4 and front["bad"] == 0
    assert front["met"] and front["burn_rate"] == 0.0


def test_counters_command_is_shard_internal(fleet):
    _, _, client = fleet
    response = client.request({"cmd": "counters"})
    assert not response["ok"]
    assert "shard-internal" in response["error"]


def test_invalid_lines_get_typed_errors(fleet):
    _, _, client = fleet
    bad = client.request_line("{not json")
    assert not bad["ok"] and bad["error_type"] == "ReproError"
    scalar = client.request_line("42")
    assert not scalar["ok"] and "object or array" in scalar["error"]


def test_router_ledger_survives_concurrent_connections(fleet):
    """Many client threads at once: no lost update in the shared ledger."""
    manager, router, client = fleet
    threads, per_thread = 8, 12
    errors: list = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def hammer(t):
            with LineClient(*client.address) as own:
                for i in range(per_thread):
                    response = own.request(
                        _request(nprocs=(1, 4, 9, 16)[(t + i) % 4])
                    )
                    if not response["ok"]:
                        errors.append(response)

        workers = [
            threading.Thread(target=hammer, args=(t,)) for t in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(switch)
    assert not errors
    front = router.frontend_stats()
    assert front["requests"] == threads * per_thread
    assert set(front["pending"].values()) == {0}
    served = sum(
        manager.service(shard_id).stats()["requests"]
        for shard_id in manager.shard_ids
    )
    assert served == threads * per_thread


def test_pipelined_responses_come_back_in_order(fleet):
    """Interleaved hits and misses on one connection stay ordered."""
    _, _, client = fleet
    assert client.predict(_request(nprocs=1, id="warm"))["ok"]
    with socket.create_connection(client.address, timeout=30) as sock:
        fh = sock.makefile("rwb")
        lines = [
            json.dumps(_request(nprocs=36, id="cold-a")),
            json.dumps(_request(nprocs=1, id="warm")),
            json.dumps(_request(nprocs=49, id="cold-b")),
        ]
        fh.write(("\n".join(lines) + "\n").encode())
        fh.flush()
        answers = [json.loads(fh.readline()) for _ in lines]
    assert [a["id"] for a in answers] == ["cold-a", "warm", "cold-b"]
    assert all(a["ok"] for a in answers)


class _Gate:
    """An execute hook that blocks until released, then runs for real."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self, spec):
        self.entered.set()
        assert self.release.wait(timeout=30.0), "gate never released"
        return synthetic_execute(spec)


@pytest.fixture
def saturable():
    """One gated shard behind a frontend that admits a single request."""
    gate = _Gate()
    manager = InProcessShardManager([lambda: _factory(0, execute=gate)])
    manager.start()
    try:
        with serve_router(manager, admission_limit=1) as (router, address):
            try:
                yield gate, router, address
            finally:
                gate.release.set()
    finally:
        manager.stop()


def test_admission_control_sheds_with_honest_retry_after(saturable):
    gate, router, address = saturable
    blocked = LineClient(*address)
    shedded = LineClient(*address)
    try:
        results = {}

        def occupy():
            results["blocked"] = blocked.request(_request(nprocs=4))

        worker = threading.Thread(target=occupy)
        worker.start()
        assert gate.entered.wait(timeout=30.0)
        # the admission slot is taken: a second cell is shed immediately
        shed = shedded.request(_request(nprocs=9))
        assert not shed["ok"]
        assert shed["error_type"] == "ServiceSaturatedError"
        assert shed["retry_after"] >= 0.05
        # batches shed atomically too
        batch = shedded.request([_request(nprocs=16), _request(nprocs=25)])
        kinds = {item["error_type"] for item in batch["results"]}
        assert kinds == {"ServiceSaturatedError"}
        gate.release.set()
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert results["blocked"]["ok"]
        front = router.frontend_stats()
        assert front["shed"] >= 2
    finally:
        blocked.close()
        shedded.close()


def test_client_retry_honours_retry_after_and_recovers(saturable):
    gate, router, address = saturable
    blocked = LineClient(*address)
    sleeps = []

    def sleep_and_release(delay):
        sleeps.append(delay)
        gate.release.set()
        # Stand in for the back-off: the retry must not race the gated
        # request for the single admission slot.
        worker.join(timeout=30.0)

    retrying = LineClient(
        *address,
        retry=RetryPolicy(max_attempts=6, base_delay=0.01),
        sleep=sleep_and_release,
    )
    try:
        worker = threading.Thread(
            target=lambda: blocked.request(_request(nprocs=4))
        )
        worker.start()
        assert gate.entered.wait(timeout=30.0)
        response = retrying.predict(_request(nprocs=9))
        worker.join(timeout=30.0)
        assert response["ok"]
        assert sleeps, "client never backed off"
        assert sleeps[0] >= 0.05  # the shed hint, not just the base delay
        # the shed shows up in the frontend's availability judgement
        report = retrying.request({"cmd": "slo"})["slo"]["frontend"]
        assert report["shed"] >= 1
        assert not report["met"]
        breaches = obs.get_registry().counter(
            "slo_breaches", objective="frontend.availability"
        )
        assert breaches.value >= 1
    finally:
        blocked.close()
        retrying.close()


def test_shard_death_yields_typed_errors_and_respawn(fleet):
    manager, router, client = fleet
    # find the shard that owns this cell, then take it down
    request = _request(nprocs=4)
    assert client.predict(request)["ok"]
    victim = next(
        shard_id
        for shard_id in manager.shard_ids
        if manager.service(shard_id).stats()["requests"] > 0
    )
    manager.kill(victim)
    # a retrying client rides through the outage
    response = LineClient(
        *client.address,
        retry=RetryPolicy(max_attempts=8, base_delay=0.05),
    ).predict(request)
    assert response["ok"]
    deadline = 100
    for _ in range(deadline):
        front = client.stats()["stats"]["frontend"]
        if front["shard_respawns"] >= 1 and front["live_shards"] == 3:
            break
        import time

        time.sleep(0.1)
    assert front["shard_deaths"] >= 1
    assert front["shard_respawns"] >= 1
    assert front["live_shards"] == 3
    registry = obs.get_registry()
    assert registry.counter("shard_deaths", shard=str(victim)).value >= 1
    assert registry.counter("shard_respawns", shard=str(victim)).value >= 1

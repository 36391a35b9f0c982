"""Chaos battery for the sharded serving tier: murder a shard mid-soak.

Extends the single-process chaos harness across the process boundary:
real shard *processes* (forkserver/spawn), the real shard router behind
``serve_socket``, and real TCP clients — then a SIGKILL (and,
separately, the ``shard.process.exit`` fault site) takes a shard down
while requests are in flight. The contract:

* every request is answered exactly once — ``ok`` after retries, never
  silently dropped, never duplicated;
* in-flight requests on the victim fail with *typed* errors that client
  retry policies absorb;
* the ring reroutes immediately and the manager respawn restores the
  fleet to full strength;
* the outage is observable: ``shard_deaths`` / ``shard_respawns``
  counters and the frontend availability SLO (burn + breach) all move.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

from repro import faults, obs
from repro.faults import FaultPlan, FaultSpec
from repro.instrument import MeasurementConfig
from repro.service import (
    LineClient,
    ProcessShardManager,
    RetryPolicy,
    make_shard_configs,
)
from repro.service.shard import FAULT_EXIT_CODE, HashRing, route_key

from .harness import TAMPER_MARKER, request_stream, serve_router

SHARDS = 3
SYNTH = "tests.chaos.harness:synthetic_execute"


def _configs(**overrides):
    defaults = dict(
        measurement=MeasurementConfig(repetitions=2, warmup=1, seed=0),
        max_workers=2,
        batch_window=0.001,
        queue_depth=16,
        execute_ref=SYNTH,
    )
    defaults.update(overrides)
    return list(make_shard_configs(SHARDS, **defaults))


def _soak(host, port, lines, n_threads=6, max_attempts=20):
    """Drive the request lines from threaded retrying clients.

    Returns ``{request id: response dict}`` — the exactly-once ledger.
    """
    responses: dict[str, dict] = {}
    duplicates: list[str] = []
    lock = threading.Lock()
    cursor = {"next": 0}

    def client():
        with LineClient(
            host,
            port,
            retry=RetryPolicy(max_attempts=max_attempts, base_delay=0.05),
        ) as c:
            while True:
                with lock:
                    i = cursor["next"]
                    if i >= len(lines):
                        return
                    cursor["next"] = i + 1
                payload = json.loads(lines[i])
                response = c.predict(payload)
                with lock:
                    if payload["id"] in responses:
                        duplicates.append(payload["id"])
                    responses[payload["id"]] = response

    threads = [
        threading.Thread(target=client, name=f"shard-chaos-{t}", daemon=True)
        for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 180.0
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"deadlocked soak clients: {stuck}"
    assert not duplicates, f"duplicated responses: {duplicates}"
    return responses


def _await_recovery(client, expect_live=SHARDS, timeout=60.0):
    deadline = time.monotonic() + timeout
    front = {}
    while time.monotonic() < deadline:
        front = client.stats()["stats"]["frontend"]
        if (
            front["live_shards"] == expect_live
            and front["shard_respawns"] >= 1
        ):
            return front
        time.sleep(0.2)
    raise AssertionError(f"fleet never recovered: {front}")


def _assert_clean(responses, lines):
    assert sorted(responses) == sorted(
        json.loads(line)["id"] for line in lines
    )
    for request_id, response in responses.items():
        assert response["ok"], (request_id, response)
        assert response["actual"] != TAMPER_MARKER
        assert "predictions" in response and "best" in response


def test_sigkill_mid_soak_reroutes_and_respawns():
    """The headline chaos run: SIGKILL a shard holding an in-flight cell."""
    # The victim is chosen by the ring itself: whichever shard owns this
    # stall cell is guaranteed to have work in flight when it dies.
    stall_request = {
        "benchmark": "BT",
        "problem_class": "S",
        "nprocs": 16,
        "chain_length": 3,
        "seed": 5,
        "id": "stalled",
    }
    victim = HashRing(range(SHARDS)).shard_for(route_key(stall_request))
    configs = _configs()
    configs[victim] = dataclasses.replace(
        configs[victim],
        fault_plan=FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.cell.stall",
                    every_nth=1,
                    max_fires=1,
                    param=5.0,
                ),
            ),
            seed=1,
        ),
    )
    with ProcessShardManager(configs) as manager, serve_router(
        manager, admission_limit=64
    ) as (_, (host, port)):
        monitor = LineClient(host, port)
        try:
            stalled_result = {}

            def stalled_client():
                with LineClient(
                    host,
                    port,
                    retry=RetryPolicy(max_attempts=10, base_delay=0.05),
                ) as c:
                    stalled_result["response"] = c.predict(stall_request)

            stalled = threading.Thread(target=stalled_client, daemon=True)
            stalled.start()
            time.sleep(1.0)  # the stall fault holds the cell in flight
            victim_pid = manager.pid(victim)
            manager.kill(victim)
            assert not manager.alive(victim)

            lines = request_stream(seed=4242, n_requests=48)
            responses = _soak(host, port, lines)
            stalled.join(timeout=60.0)
            assert not stalled.is_alive()

            # exactly-once, typed, uncorrupted — even through the outage
            _assert_clean(responses, lines)
            assert stalled_result["response"]["ok"]

            front = _await_recovery(monitor)
            assert front["shard_deaths"] >= 1
            assert front["shard_respawns"] >= 1
            assert front["failed"] >= 1  # the stalled in-flight cell
            assert manager.alive(victim)
            assert manager.pid(victim) != victim_pid

            # the respawned shard serves its old keys again
            after = monitor.predict(dict(stall_request, id="post-respawn"))
            assert after["ok"]
            assert after["actual"] == stalled_result["response"]["actual"]

            # the outage moved the SLO needles
            slo = monitor.request({"cmd": "slo"})["slo"]["frontend"]
            assert slo["bad"] >= 1
            assert slo["burn_rate"] > 0.0
            registry = obs.get_registry()
            assert (
                registry.counter(
                    "shard_deaths", shard=str(victim)
                ).value
                >= 1
            )
            assert (
                registry.counter(
                    "shard_respawns", shard=str(victim)
                ).value
                >= 1
            )
            if not slo["met"]:
                assert (
                    registry.counter(
                        "slo_breaches",
                        objective="frontend.availability",
                    ).value
                    >= 1
                )
        finally:
            monitor.close()


def test_shard_exit_fault_site_fires_and_fleet_survives():
    """``shard.process.exit`` hard-exits shards mid-line; service holds."""
    plan = FaultPlan(
        specs=(
            FaultSpec(site="shard.process.exit", every_nth=19, max_fires=1),
        ),
        seed=7,
    )
    assert "shard.process.exit" in faults.SITES
    configs = _configs(fault_plan=plan)
    with ProcessShardManager(configs) as manager, serve_router(
        manager, admission_limit=64
    ) as (_, (host, port)):
        monitor = LineClient(host, port)
        try:
            pids_before = {s: manager.pid(s) for s in manager.shard_ids}
            lines = request_stream(seed=97, n_requests=60)
            responses = _soak(host, port, lines)
            _assert_clean(responses, lines)

            front = _await_recovery(monitor)
            assert front["shard_deaths"] >= 1
            assert front["live_shards"] == SHARDS
            # at least one shard was replaced by the injected hard exit
            replaced = [
                s
                for s in manager.shard_ids
                if manager.pid(s) != pids_before[s]
            ]
            assert replaced
            # and it really died through the fault site's exit path
            assert FAULT_EXIT_CODE == 17
        finally:
            monitor.close()


def test_sigkill_composes_with_data_layer_faults(tmp_path):
    """A shard dies while db corruption faults fire fleet-wide; the
    tamper marker still never reaches a client."""
    plan = FaultPlan(
        specs=(
            FaultSpec(site="db.write.corrupt", every_nth=5),
            FaultSpec(site="db.read.corrupt", every_nth=7),
            FaultSpec(site="cache.l1.drop", every_nth=3),
        ),
        seed=11,
    )
    configs = _configs(
        fault_plan=plan, cache_dir=str(tmp_path / "memo")
    )
    with ProcessShardManager(configs) as manager, serve_router(
        manager, admission_limit=64
    ) as (_, (host, port)):
        monitor = LineClient(host, port)
        try:
            lines = request_stream(seed=31, n_requests=40)
            killer_done = threading.Event()

            def killer():
                time.sleep(0.5)
                manager.kill(manager.shard_ids[0])
                killer_done.set()

            threading.Thread(target=killer, daemon=True).start()
            responses = _soak(host, port, lines)
            assert killer_done.wait(timeout=30.0)
            _assert_clean(responses, lines)
            front = _await_recovery(monitor)
            assert front["shard_deaths"] >= 1
        finally:
            monitor.close()

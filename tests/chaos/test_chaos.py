"""Chaos tests: the serving stack under seeded multi-site fault plans.

``test_smoke`` runs in tier 1 (a few hundred requests, deterministic
triggers so every site demonstrably fires). ``test_soak`` is the
``slow``-marked headline soak: thousands of requests, probabilistic
triggers, stalls long enough to force deadline expiries. Both share the
same invariants, checked by :func:`reconcile`. A separate soak runs
over a socket while a worker process holding an in-flight cell is
SIGKILLed.
"""

import functools
import json
import os
import signal
import threading
import time

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.service import LineClient, RetryPolicy

from .harness import (
    TAMPER_MARKER,
    request_stream,
    run_chaos,
    serving,
    synthetic_execute,
)

pytestmark = pytest.mark.chaos


def plan(*specs, seed=0):
    return FaultPlan(specs=tuple(specs), seed=seed)


#: Deterministic cadences: guaranteed fires at every layer within a few
#: hundred requests.
SMOKE_PLAN = plan(
    FaultSpec(site="worker.cell.crash", every_nth=5),
    FaultSpec(site="worker.cell.stall", every_nth=11, param=0.02),
    FaultSpec(site="pool.submit.reject", every_nth=9),
    FaultSpec(site="engine.dispatch.error", every_nth=13),
    FaultSpec(site="cache.l1.drop", every_nth=6),
    FaultSpec(site="db.read.corrupt", every_nth=4),
    FaultSpec(site="db.write.corrupt", every_nth=7),
    FaultSpec(site="api.disconnect", every_nth=10),
    seed=42,
)

#: Probabilistic soak: the injector's seeded streams decide, and stalls
#: are longer than the deadline so timeouts occur. Archive records answer
#: every seed of a cell, so the soak's stream runs only a few dozen cells:
#: the stall cadence is counted in cell executions, not requests.
SOAK_PLAN = plan(
    FaultSpec(site="worker.cell.crash", probability=0.06),
    FaultSpec(site="worker.cell.stall", every_nth=5, param=0.6),
    FaultSpec(site="pool.submit.reject", probability=0.02),
    FaultSpec(site="engine.dispatch.error", probability=0.02),
    FaultSpec(site="cache.l1.drop", probability=0.15),
    FaultSpec(site="db.read.corrupt", probability=0.08),
    FaultSpec(site="db.write.corrupt", probability=0.08),
    FaultSpec(site="api.disconnect", probability=0.04),
    seed=2002,
)

#: Error types a chaos run is allowed to surface — all ReproError
#: subclasses with a wire representation. Anything else is a bug.
EXPECTED_ERROR_TYPES = {
    "WorkerCrashError",
    "InjectedFaultError",
    "ServiceSaturatedError",
    "ServiceDegradedError",
    "ServiceTimeoutError",
    "MeasurementError",  # persistent write corruption after retry
    "ServiceError",
    "ServiceClosedError",
}


def reconcile(result, chaos_plan):
    """The harness contract: every invariant the ISSUE pins."""
    # 1. Zero deadlocks is asserted inside run_chaos (thread joins).
    # 2. Every request accounted: success, typed error, or disconnect.
    assert result.malformed == []
    assert result.accounted == result.requests
    unexpected = set(result.errors_by_type) - EXPECTED_ERROR_TYPES
    assert not unexpected, f"untyped/unexpected errors: {unexpected}"

    # 3. Corruption is detected, never served.
    assert all(abs(a) < TAMPER_MARKER for a in result.served_actuals)
    assert (
        result.counters["cache_corruption_detected"]
        >= result.fires.get("db.read.corrupt", 0)
    )

    # 4. Metrics reconcile with the injected fault counts.
    for site, fired in result.fires.items():
        assert result.counters["fault_injected"][site] == fired
    assert (
        result.counters["worker_respawns"]
        == result.fires.get("worker.cell.crash", 0)
    )
    assert (
        result.counters["request_timeout"]
        == result.errors_by_type.get("ServiceTimeoutError", 0)
    )
    assert result.disconnects == result.fires.get("api.disconnect", 0)

    # 5. Determinism: the observed fire counts match a pure replay of the
    #    plan's schedule over the observed per-site hit counts.
    for site, hit_count in result.hits.items():
        replay = chaos_plan.schedule(site, hit_count)
        assert sum(replay) == result.fires[site], (
            f"site {site}: {result.fires[site]} fires but the schedule "
            f"replay predicts {sum(replay)} over {hit_count} hits"
        )


@pytest.mark.timeout(100)
def test_smoke():
    """Tier-1 chaos: a few hundred requests, every site provably firing."""
    result = run_chaos(SMOKE_PLAN, n_requests=300, n_threads=8)
    reconcile(result, SMOKE_PLAN)
    active_sites = [s for s, n in result.fires.items() if n > 0]
    assert len(active_sites) >= 5, f"only fired: {active_sites}"
    assert result.ok > 0  # the service still served real answers


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_soak():
    """The headline soak: >= 2000 requests under eight active fault sites."""
    result = run_chaos(
        SOAK_PLAN,
        n_requests=2500,
        n_threads=12,
        request_seed=77,
        join_timeout=240.0,
        default_timeout=0.25,
    )
    reconcile(result, SOAK_PLAN)
    active_sites = [s for s, n in result.fires.items() if n > 0]
    assert len(active_sites) >= 5, f"only fired: {active_sites}"
    # The long stalls must actually have produced deadline expiries, and
    # the service must still have served plenty of real answers.
    assert result.errors_by_type.get("ServiceTimeoutError", 0) >= 1
    assert result.ok > result.requests // 2


@pytest.mark.timeout(100)
def test_same_seed_same_schedule_across_runs():
    """Same plan + seed => the injector makes identical decisions."""
    from repro import obs

    a = run_chaos(SMOKE_PLAN, n_requests=120, n_threads=4)
    obs.reset()  # counters are per-run; the registry is process-global
    b = run_chaos(SMOKE_PLAN, n_requests=120, n_threads=4)
    reconcile(a, SMOKE_PLAN)
    reconcile(b, SMOKE_PLAN)
    # Thread timing may shift *which* request hits a site, but the
    # decision sequence per site is a pure function of (seed, site, hit
    # index): replaying either run's hit counts gives its exact fires.
    for site in SMOKE_PLAN.sites:
        hits = min(a.hits[site], b.hits[site])
        assert SMOKE_PLAN.schedule(site, hits) == SMOKE_PLAN.schedule(site, hits)
        prefix_a = SMOKE_PLAN.schedule(site, a.hits[site])[:hits]
        prefix_b = SMOKE_PLAN.schedule(site, b.hits[site])[:hits]
        assert prefix_a == prefix_b


@pytest.mark.timeout(100)
def test_failure_counters_match_failed_replies():
    """Every ``ok: false`` reply is counted exactly once, and nothing else is.

    A plan that fails every third dispatch, against a sequential stream:
    the service's ``errors`` plus ``timeouts`` counters must move by
    exactly the number of failed replies. Failures are counted per waiter
    (``PredictionService._await``), so a coalesced waiter would count
    once for its own reply too.
    """
    from repro import faults
    from repro.service import PredictionService, handle_line

    chaos_plan = plan(
        FaultSpec(site="engine.dispatch.error", every_nth=3),
        seed=7,
    )
    service = PredictionService(executor="inline", execute=synthetic_execute)
    metrics = service.metrics
    faults.install(chaos_plan)
    try:
        before = metrics.errors.value + metrics.timeouts.value
        requests_before = metrics.requests.value
        replies = [
            json.loads(handle_line(service, line))
            for line in request_stream(seed=5, n_requests=60)
        ]
        counted = metrics.errors.value + metrics.timeouts.value - before
        served = metrics.requests.value - requests_before
    finally:
        service.close()
        faults.clear()

    failed = [reply for reply in replies if not reply["ok"]]
    assert failed, "the plan never fired"
    assert counted == len(failed)
    assert served == len(replies) == 60
    for reply in failed:
        assert reply["error_type"] == "InjectedFaultError"
        assert reply["id"].startswith("chaos-")


#: The cell the SIGKILL victim holds in flight; the soak never asks it.
PARKED_NPROCS = 25


def park_until_killed(pidfile, spec):
    """Hold the first parked cell in its worker, pid published, to be killed.

    Any later run of the cell (the retry on the rebuilt pool) finds the
    pid file and runs normally.
    """
    if spec.nprocs == PARKED_NPROCS and not os.path.exists(pidfile):
        with open(pidfile + ".tmp", "w") as f:
            f.write(str(os.getpid()))
        os.replace(pidfile + ".tmp", pidfile)
        time.sleep(60.0)
    return synthetic_execute(spec)


def _soak(address, lines, n_threads=6, max_attempts=20):
    """Drive ``lines`` from threaded retrying clients: ``{id: response}``."""
    responses: dict = {}
    duplicates: list = []
    lock = threading.Lock()
    cursor = {"next": 0}

    def client():
        with LineClient(
            *address,
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
        threading.Thread(target=client, name=f"soak-{t}", daemon=True)
        for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 120.0
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"deadlocked soak clients: {stuck}"
    assert not duplicates, f"duplicated responses: {duplicates}"
    return responses


@pytest.mark.timeout(200)
def test_sigkill_mid_soak_respawns_and_answers_every_request(tmp_path):
    """SIGKILL the worker process holding an in-flight cell, then soak.

    The in-flight request fails with a typed, retryable error that its
    client's retry absorbs on the rebuilt pool; every soak request is
    answered exactly once, and the death is counted, not degrading.
    """
    pidfile = str(tmp_path / "parked.pid")
    parked_request = {
        "benchmark": "BT",
        "problem_class": "S",
        "nprocs": PARKED_NPROCS,
        "chain_length": 3,
        "seed": 5,
        "id": "parked",
    }
    with serving(
        execute=functools.partial(park_until_killed, pidfile),
        executor="process",
        max_workers=2,
        queue_depth=16,
    ) as (service, address):
        parked_result = {}

        def parked_client():
            with LineClient(
                *address, retry=RetryPolicy(max_attempts=10, base_delay=0.05)
            ) as c:
                parked_result["response"] = c.predict(parked_request)

        parked = threading.Thread(target=parked_client, daemon=True)
        parked.start()
        deadline = time.monotonic() + 60
        while not os.path.exists(pidfile):
            assert time.monotonic() < deadline, "the cell never parked"
            time.sleep(0.01)
        with open(pidfile) as f:
            os.kill(int(f.read()), signal.SIGKILL)
        # The soak starts once the death has landed, on the rebuilt pool.
        while service.stats()["worker_crashes"] < 1:
            assert time.monotonic() < deadline, "the death never landed"
            time.sleep(0.01)

        lines = request_stream(seed=4242, n_requests=48)
        responses = _soak(address, lines)
        parked.join(timeout=60.0)
        assert not parked.is_alive()

        assert sorted(responses) == sorted(
            json.loads(line)["id"] for line in lines
        )
        for request_id, response in responses.items():
            assert response["ok"], (request_id, response)
            assert response["actual"] != TAMPER_MARKER
        assert parked_result["response"]["ok"]
        with LineClient(*address) as monitor:
            after = monitor.predict(dict(parked_request, id="after"))
        assert after["ok"]
        assert after["actual"] == parked_result["response"]["actual"]
        stats = service.stats()
        assert not service.degraded
    assert stats["worker_crashes"] == 1
    assert stats["worker_respawns"] == 1

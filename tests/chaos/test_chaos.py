"""Chaos tests: the serving stack under seeded multi-site fault plans.

``test_smoke`` runs in tier 1 (a few hundred requests, deterministic
triggers so every site demonstrably fires). ``test_soak`` is the
``slow``-marked headline soak: thousands of requests, probabilistic
triggers, stalls long enough to force deadline expiries. Both share the
same invariants, checked by :func:`reconcile`.
"""

import pytest

from repro.faults import FaultPlan, FaultSpec

from .harness import TAMPER_MARKER, run_chaos

pytestmark = pytest.mark.chaos


def plan(*specs, seed=0):
    return FaultPlan(specs=tuple(specs), seed=seed)


#: Deterministic cadences: guaranteed fires at every layer within a few
#: hundred requests.
SMOKE_PLAN = plan(
    FaultSpec(site="worker.cell.crash", every_nth=5),
    FaultSpec(site="worker.cell.stall", every_nth=11, param=0.02),
    FaultSpec(site="pool.submit.reject", every_nth=9),
    FaultSpec(site="batch.dispatch.error", every_nth=13),
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
    FaultSpec(site="batch.dispatch.error", probability=0.02),
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
    """The headline soak: >= 2000 requests under nine active fault sites."""
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
def test_slo_counters_move_under_faults():
    """Injected faults burn the error budget and the SLO monitor sees it.

    A tight availability objective (99 %) against a plan that errors every
    third dispatch: the window's bad fraction is ~an order of magnitude
    over budget, so ``slo_report`` must flag the breach and mirror it into
    the registry counters the chaos dashboards read.
    """
    from repro import faults
    from repro.service import PredictionService, handle_line
    from repro.service.slo import SLOObjective

    from .harness import request_stream, synthetic_execute

    chaos_plan = plan(
        FaultSpec(site="batch.dispatch.error", every_nth=3),
        seed=7,
    )
    service = PredictionService(
        executor="thread",
        max_workers=2,
        batch_window=0.0,
        execute=synthetic_execute,
        slo_objectives=(
            SLOObjective(name="availability", kind="error_rate", target=0.99),
        ),
    )
    faults.install(chaos_plan)
    try:
        assert service.slo_report()["breaches"] == 0  # calm before
        for line in request_stream(seed=5, n_requests=60):
            handle_line(service, line)
        report = service.slo_report()
    finally:
        service.close()
        faults.clear()

    verdict = report["objectives"][0]
    assert report["window"]["requests"] >= 60
    assert verdict["bad"] > 0
    assert verdict["burn_rate"] > 1.0
    assert not verdict["met"]
    assert report["breaches"] == 1

    snapshot = service.metrics.registry.snapshot()
    assert snapshot["slo_breaches{objective=availability}"] >= 1
    assert snapshot["slo_burn_rate{objective=availability}"] > 1.0

"""Throughput of the prediction service vs. cold one-shot pipelines.

The serving subsystem exists so that a repeated workload — the same few
(benchmark, class, nprocs) cells asked for over and over — does not pay
for a fresh measurement campaign per question.  This benchmark drives a
100-request workload cycling over four distinct configurations through

* a single warm :class:`~repro.service.PredictionService` (batched,
  cached, single-flight), and
* 100 cold one-shots, each building a fresh pipeline with the same
  measurement protocol,

and asserts the service answers at least 10x faster, backed by the
service's own metrics (cache hit ratio, batch sizes).
"""

from __future__ import annotations

import time

import pytest

from repro import quick_prediction
from repro.experiments import ExperimentSettings
from repro.instrument import MeasurementConfig
from repro.service import PredictRequest, PredictionService

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1, seed=0)

#: Four distinct questions, cycled 25 times = 100 requests. Two share a
#: measurement cell (chain lengths 2 and 3 of BT/S/4), so a burst
#: dispatches them as one cell even on the cold pass.
DISTINCT = [
    PredictRequest("BT", "S", 4, chain_length=2),
    PredictRequest("BT", "S", 4, chain_length=3),
    PredictRequest("BT", "S", 1, chain_length=2),
    PredictRequest("BT", "S", 9, chain_length=2),
]
CYCLES = 25
TOTAL = CYCLES * len(DISTINCT)


def _cold_one_shot(request: PredictRequest) -> float:
    """A fresh pipeline per request — no shared state whatsoever."""
    report = quick_prediction(
        request.benchmark,
        request.problem_class,
        request.nprocs,
        request.chain_length,
        settings=ExperimentSettings(measurement=MEASUREMENT),
    )
    return report.actual


def test_warm_service_beats_cold_one_shots_10x():
    # Cold baseline: every request rebuilds the world.
    t0 = time.perf_counter()
    cold_actuals = [
        _cold_one_shot(DISTINCT[i % len(DISTINCT)]) for i in range(TOTAL)
    ]
    cold_seconds = time.perf_counter() - t0

    # Warm service: one process-lifetime service, bursts of requests.
    with PredictionService(measurement=MEASUREMENT, max_workers=2) as service:
        t0 = time.perf_counter()
        warm_reports = []
        for _ in range(CYCLES):
            warm_reports.extend(service.predict_many(DISTINCT, timeout=120))
        warm_seconds = time.perf_counter() - t0
        stats = service.stats()

    assert len(warm_reports) == TOTAL
    # Same answers as the cold pipelines (same measurement protocol).
    for i, report in enumerate(warm_reports):
        assert report.actual == pytest.approx(cold_actuals[i])

    speedup = cold_seconds / warm_seconds
    print(
        f"\ncold: {cold_seconds:.2f}s for {TOTAL} one-shots, "
        f"warm: {warm_seconds:.3f}s via service -> {speedup:.0f}x, "
        f"hit ratio {stats['cache_hit_ratio']:.2f}"
    )
    assert speedup >= 10.0

    # The metrics must corroborate *why* it was fast.
    assert stats["requests"] == TOTAL
    # Only the first cycle can miss; everything after is served from L1.
    assert stats["cache_hit_ratio"] >= 0.9
    assert stats["l1_hits"] >= TOTAL - len(DISTINCT)
    # Batching actually grouped the distinct cold requests: the two
    # chain lengths of BT/S/4 share one measurement plan.
    assert stats["batches"] >= 1
    assert stats["batch_size"]["max"] >= 2.0
    assert stats["simulations"] > 0  # the cold pass did real work


def test_observability_overhead_under_10_percent():
    """Registry + spans cost <10 % on the warm-service hot path.

    Drives the same warm workload (the L1-cache hit path — the hottest
    the service gets) with the obs substrate enabled and disabled, and
    bounds the relative slowdown. Tracing/export is off in both passes;
    this measures exactly the always-on instrumentation: span timing,
    the span_seconds histogram, and the service counters.
    """
    from repro import obs

    requests = DISTINCT
    rounds = 50

    def _drive(service: PredictionService) -> float:
        # Warm every cell first so the timed loop is pure cache hits.
        service.predict_many(requests, timeout=120)
        best = float("inf")
        for _ in range(5):  # min-of-trials rejects scheduler noise
            t0 = time.perf_counter()
            for _ in range(rounds):
                for request in requests:
                    service.predict(request, timeout=120)
            best = min(best, time.perf_counter() - t0)
        return best

    with PredictionService(
        measurement=MEASUREMENT, max_workers=2
    ) as service:
        enabled_seconds = _drive(service)

    obs.disable()
    try:
        with PredictionService(
            measurement=MEASUREMENT, max_workers=2
        ) as service:
            disabled_seconds = _drive(service)
    finally:
        obs.enable()
        obs.reset()

    overhead = enabled_seconds / disabled_seconds - 1.0
    per_request = enabled_seconds / (rounds * len(requests)) * 1e6
    print(
        f"\nobs enabled: {enabled_seconds:.4f}s, disabled: "
        f"{disabled_seconds:.4f}s -> {100 * overhead:+.1f}% overhead "
        f"({per_request:.0f} us/request)"
    )
    assert overhead < 0.10


def test_single_flight_under_concurrent_identical_load():
    """Eight threads asking the same question cost one simulation."""
    import threading

    from repro.parallel.worker import run_cell

    calls = []
    lock = threading.Lock()

    def counting(spec):
        with lock:
            calls.append(spec)
        return run_cell(spec)

    with PredictionService(
        measurement=MEASUREMENT,
        execute=counting,
        executor="inline",
    ) as service:
        request = PredictRequest("BT", "S", 4)
        results = [None] * 8

        def worker(i):
            results[i] = service.predict(request, timeout=120)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(r == results[0] for r in results)

"""Serving throughput: single-process server vs. the sharded tier.

Drives the same warm-path workload — four distinct cells, prewarmed,
cycled from one client connection — through

* the single-process :func:`~repro.service.serve_socket` server, and
* ``--shards 2`` (a real :class:`~repro.service.ProcessShardManager`
  process group behind a :class:`~repro.service.ShardRouter` served by
  the same ``serve_socket``),

and records sustained req/s plus p99 latency for both into
``BENCH_serve.json`` (perf-ledger entry schema) and the ``serve`` series
of ``PERF_LEDGER.json``, so ``repro bench check`` gates the sharded
tier's overhead trajectory.

On a single-core CI runner the sharded tier *loses* the head-to-head —
an extra network hop plus router work on the same core — so the
assertions bound sanity (everything answers, latency stays sub-second),
not a speedup. The ledger is what watches the trend.
"""

from __future__ import annotations

import json
import threading
import time

from benchmarks._ledger import REPO_ROOT, _commit, record_metrics
from repro.instrument import MeasurementConfig
from repro.obs import ledger as ledger_mod
from repro.service import (
    LineClient,
    PredictionService,
    ProcessShardManager,
    ShardRouter,
    make_shard_configs,
    serve_socket,
)

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1, seed=0)

#: The warm-path workload: four distinct cells, cycled.
CELLS = [
    {"benchmark": "BT", "problem_class": "S", "nprocs": 4, "chain_length": 2},
    {"benchmark": "BT", "problem_class": "S", "nprocs": 4, "chain_length": 3},
    {"benchmark": "BT", "problem_class": "S", "nprocs": 1, "chain_length": 2},
    {"benchmark": "SP", "problem_class": "S", "nprocs": 4, "chain_length": 2},
]
REQUESTS = 400


def _drive(host, port) -> dict[str, float]:
    """Prewarm, then measure sustained req/s and latency quantiles."""
    with LineClient(host, port) as client:
        for cell in CELLS:
            response = client.predict(cell)
            assert response["ok"], response
        latencies = []
        started = time.perf_counter()
        for i in range(REQUESTS):
            t0 = time.perf_counter()
            response = client.predict(CELLS[i % len(CELLS)])
            latencies.append(time.perf_counter() - t0)
            assert response["ok"], response
        elapsed = time.perf_counter() - started
    latencies.sort()
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return {
        "rps": REQUESTS / elapsed,
        "p50_ms": 1e3 * latencies[len(latencies) // 2],
        "p99_ms": 1e3 * p99,
    }


def _serve_and_drive(served, handler=None) -> dict[str, float]:
    """Serve ``served`` on an ephemeral port, drive it, shut it down."""
    ready = threading.Event()
    bound: list = []
    control: list = []
    thread = threading.Thread(
        target=serve_socket,
        args=(served,),
        kwargs={
            "host": "127.0.0.1",
            "port": 0,
            "ready": ready,
            "bound": bound,
            "control": control,
            "handler": handler,
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(30.0)
    try:
        return _drive(*bound[0])
    finally:
        control[0].shutdown()
        thread.join(10.0)


def _measure_single() -> dict[str, float]:
    with PredictionService(measurement=MEASUREMENT, max_workers=2) as service:
        return _serve_and_drive(service)


def _measure_sharded() -> dict[str, float]:
    configs = make_shard_configs(2, measurement=MEASUREMENT, max_workers=2)
    with ProcessShardManager(configs) as manager, ShardRouter(
        manager
    ) as router:
        return _serve_and_drive(router, router.handle_line)


def test_sharded_serving_throughput_ledger():
    single = _measure_single()
    sharded = _measure_sharded()

    # sanity floor, not a horse race: a warm request must stay cheap on
    # both paths even on a one-core runner
    assert single["rps"] > 20, single
    assert sharded["rps"] > 20, sharded
    assert single["p99_ms"] < 1000, single
    assert sharded["p99_ms"] < 1000, sharded

    metrics = {
        "single_rps": {
            "value": round(single["rps"], 1),
            "unit": "req/s",
            "direction": ledger_mod.HIGHER,
        },
        "sharded_rps": {
            "value": round(sharded["rps"], 1),
            "unit": "req/s",
            "direction": ledger_mod.HIGHER,
        },
        "single_p99_ms": {
            "value": round(single["p99_ms"], 3),
            "unit": "ms",
            "direction": ledger_mod.LOWER,
        },
        "sharded_p99_ms": {
            "value": round(sharded["p99_ms"], 3),
            "unit": "ms",
            "direction": ledger_mod.LOWER,
        },
    }
    meta = {
        "requests": REQUESTS,
        "cells": len(CELLS),
        "shards": 2,
        "single_p50_ms": round(single["p50_ms"], 3),
        "sharded_p50_ms": round(sharded["p50_ms"], 3),
    }
    entry = ledger_mod.make_entry(
        "serve",
        metrics,
        timestamp=time.time(),
        commit=_commit(),
        samples=REQUESTS,
        meta=meta,
    )
    (REPO_ROOT / "BENCH_serve.json").write_text(
        json.dumps(entry, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    record_metrics("serve", metrics, samples=REQUESTS, meta=meta)

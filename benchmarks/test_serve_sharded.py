"""Serving throughput: single-process server vs. the sharded tier.

Drives the same warm-path workload — four distinct cells, prewarmed,
cycled from one client connection — through

* the single-process :func:`~repro.service.serve_socket` server, and
* ``--shards 2`` (a real :class:`~repro.service.ProcessShardManager`
  process group behind a :class:`~repro.service.ShardRouter` served by
  the same ``serve_socket``),

and prints sustained req/s plus p50/p99 latency for both as one JSON
line (``pytest -rP`` keeps it in the log); no file is written.

On a single-core CI runner the sharded tier *loses* the head-to-head —
an extra network hop plus router work on the same core — so the
assertions bound sanity (everything answers, latency stays sub-second),
not a speedup.
"""

from __future__ import annotations

import json
import threading
import time

from repro.instrument import MeasurementConfig
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


def test_sharded_serving_throughput():
    single = _measure_single()
    sharded = _measure_sharded()

    record = {
        "requests": REQUESTS,
        "cells": len(CELLS),
        "shards": 2,
        **{
            f"{side}_{name}": round(value, 3)
            for side, result in (("single", single), ("sharded", sharded))
            for name, value in result.items()
        },
    }
    print(json.dumps(record, sort_keys=True))

    # sanity floor, not a horse race: a warm request must stay cheap on
    # both paths even on a one-core runner
    assert single["rps"] > 20, record
    assert sharded["rps"] > 20, record
    assert single["p99_ms"] < 1000, record
    assert sharded["p99_ms"] < 1000, record

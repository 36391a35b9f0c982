"""Serving throughput of one server: warm traffic and a cold burst.

Two cases over the single-process :func:`~repro.service.serve_socket`
server, printed together as one JSON line (``pytest -rP`` keeps it in
the log); no file is written.

* **warm** — four distinct cells, prewarmed, cycled from one client
  connection: sustained req/s plus p50/p99 latency of the L1 path.
* **cold** — 18 distinct cells (BT and SP at classes S and W on 1, 4 and
  9 processes; LU at S and W on 2, 4 and 8), repetitions 4, sent by 4
  client threads to a fresh server, once with ``executor="inline"``
  (every cell simulated on one in-process cell thread) and once with the default
  executor at ``max_workers=2`` (cells simulated on two worker
  processes): the burst's wall time.

A one-CPU runner cannot show the worker processes' speedup, so the
assertions bound sanity (everything answers, both executors agree, no
worker dies, latency stays sub-second), not a speedup.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.instrument import MeasurementConfig
from repro.service import LineClient, PredictionService, serve_socket

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1, seed=0)

#: The warm-path workload: four distinct cells, cycled.
CELLS = [
    {"benchmark": "BT", "problem_class": "S", "nprocs": 4, "chain_length": 2},
    {"benchmark": "BT", "problem_class": "S", "nprocs": 4, "chain_length": 3},
    {"benchmark": "BT", "problem_class": "S", "nprocs": 1, "chain_length": 2},
    {"benchmark": "SP", "problem_class": "S", "nprocs": 4, "chain_length": 2},
]
REQUESTS = 400

#: The cold burst: 18 distinct cells at repetitions 4, 4 client threads.
COLD_CELLS = [
    {"benchmark": benchmark, "problem_class": cls, "nprocs": nprocs}
    for benchmark, procs in (("BT", (1, 4, 9)), ("SP", (1, 4, 9)),
                             ("LU", (2, 4, 8)))
    for cls in ("S", "W")
    for nprocs in procs
]
COLD_MEASUREMENT = MeasurementConfig(repetitions=4, warmup=2, seed=0)
COLD_CLIENTS = 4


def _serving(service, drive):
    """Serve ``service`` on an ephemeral port, ``drive`` it, shut it down."""
    ready = threading.Event()
    bound: list = []
    control: list = []
    thread = threading.Thread(
        target=serve_socket,
        args=(service,),
        kwargs={
            "host": "127.0.0.1",
            "port": 0,
            "ready": ready,
            "bound": bound,
            "control": control,
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(30.0)
    try:
        return drive(*bound[0])
    finally:
        control[0].shutdown()
        thread.join(10.0)


def _drive_warm(host, port) -> dict[str, float]:
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


def _drive_cold(host, port) -> dict:
    """Send the cold burst from several client threads; time it."""
    local = threading.local()
    opened: list = []

    def ask(cell):
        if not hasattr(local, "client"):
            local.client = LineClient(host, port)
            opened.append(local.client)
        return local.client.predict(cell)

    started = time.perf_counter()
    with ThreadPoolExecutor(COLD_CLIENTS) as clients:
        responses = list(clients.map(ask, COLD_CELLS))
    elapsed = time.perf_counter() - started
    for client in opened:
        client.close()
    assert all(r["ok"] for r in responses), responses
    return {
        "seconds": elapsed,
        "answers": [(r["actual"], r["predictions"]) for r in responses],
    }


def _measure_cold(**executor) -> tuple[dict, dict]:
    with PredictionService(
        measurement=COLD_MEASUREMENT, **executor
    ) as service:
        cold = _serving(service, _drive_cold)
        return cold, service.stats()


def test_single_server_throughput():
    with PredictionService(measurement=MEASUREMENT, max_workers=2) as service:
        warm = _serving(service, _drive_warm)
    inline, inline_stats = _measure_cold(executor="inline")
    pool, pool_stats = _measure_cold(max_workers=2)

    record = {
        "warm_requests": REQUESTS,
        "warm_cells": len(CELLS),
        **{f"warm_{name}": round(value, 3) for name, value in warm.items()},
        "cold_cells": len(COLD_CELLS),
        "cold_repetitions": COLD_MEASUREMENT.repetitions,
        "cold_clients": COLD_CLIENTS,
        "cold_inline_s": round(inline["seconds"], 3),
        "cold_workers2_s": round(pool["seconds"], 3),
    }
    print(json.dumps(record, sort_keys=True))

    # Sanity bounds, not a horse race: a warm request stays cheap, the
    # executors agree bit for bit, and no worker died.
    assert warm["rps"] > 20, record
    assert warm["p99_ms"] < 1000, record
    assert pool["answers"] == inline["answers"], record
    assert inline_stats["simulations"] > 0, record
    assert pool_stats["simulations"] == inline_stats["simulations"], record
    assert pool_stats["worker_respawns"] == 0, record
    assert pool["seconds"] < 300 and inline["seconds"] < 300, record

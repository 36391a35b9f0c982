"""Prediction serving: caching, single-flight, worker pool.

The one-shot predictor stack answers "how long will BT class W on 9
processors take?" by re-simulating the full measurement protocol every
time. This subsystem turns that into a long-lived service:

* :class:`~repro.service.engine.PredictionService` — the engine: accepts
  :class:`~repro.service.engine.PredictRequest` objects, returns
  :class:`~repro.core.predictor.PredictionReport` objects; identical
  requests in flight share one future (single-flight), and a request
  that must simulate dispatches its cell from its own thread;
* :mod:`~repro.service.cache` — the in-process L1 LRU (with TTL), whose
  entries keep each report with its rendered wire reply, over the one
  persistent store, the
  :class:`~repro.parallel.memo.SimulationMemoStore` directory that
  campaigns share;
* :mod:`~repro.service.workers` — a bounded pool of worker processes
  (the :class:`~repro.parallel.executor.CellPool` campaigns use, or one
  in-process cell thread) running the simulations, with reject-with-retry-after
  backpressure and typed worker-death accounting;
* :mod:`~repro.service.metrics` — counters and latency histograms behind
  :meth:`~repro.service.engine.PredictionService.stats`;
* :mod:`~repro.service.api` — the JSON-lines / TCP front-ends behind
  ``repro serve``, and :class:`~repro.service.api.LineClient`, the one
  client: it speaks the line protocol over TCP and retries transient
  errors. In-process callers call ``PredictionService.predict`` directly.

Quickstart::

    from repro.service import PredictionService, PredictRequest

    with PredictionService(cache_dir=".repro-cache") as service:
        report = service.predict(PredictRequest("BT", "W", 9, chain_length=3))
        print(report.errors(), service.stats()["cache_hit_ratio"])
"""

from repro.service.api import (
    LineClient,
    RetryPolicy,
    counters_payload,
    error_dict,
    handle_line,
    metrics_payload,
    serve_jsonl,
    serve_socket,
)
from repro.service.cache import LRUCache
from repro.service.engine import PredictRequest, PredictionService
from repro.service.metrics import ServiceMetrics, render_stats
from repro.service.workers import WorkerPool

__all__ = [
    "LRUCache",
    "LineClient",
    "PredictRequest",
    "PredictionService",
    "RetryPolicy",
    "ServiceMetrics",
    "WorkerPool",
    "counters_payload",
    "error_dict",
    "handle_line",
    "metrics_payload",
    "render_stats",
    "serve_jsonl",
    "serve_socket",
]

"""Prediction serving: batching, caching, single-flight, worker pool.

The one-shot predictor stack answers "how long will BT class W on 9
processors take?" by re-simulating the full measurement protocol every
time. This subsystem turns that into a long-lived service:

* :class:`~repro.service.engine.PredictionService` — the engine: accepts
  :class:`~repro.service.engine.PredictRequest` objects, returns
  :class:`~repro.core.predictor.PredictionReport` objects;
* :mod:`~repro.service.cache` — two-tier cache: in-process report LRU
  (with TTL) over the one persistent store, the
  :class:`~repro.parallel.memo.SimulationMemoStore` directory that
  campaigns share;
* :mod:`~repro.service.batching` — single-flight deduplication of
  identical in-flight requests plus coalescing of distinct ones into
  per-cell batches;
* :mod:`~repro.service.workers` — a bounded ``concurrent.futures`` thread
  pool (or inline executor) running the simulations, with
  reject-with-retry-after backpressure;
* :mod:`~repro.service.metrics` — counters and latency histograms behind
  :meth:`~repro.service.engine.PredictionService.stats`;
* :mod:`~repro.service.api` — the :class:`~repro.service.api.ServiceClient`
  facade, the :class:`~repro.service.api.LineClient` socket client, and
  the JSON-lines / TCP front-ends behind ``repro serve``;
* :mod:`~repro.service.shard` — the consistent-hash ring, the
  shared-nothing shard process group behind ``repro serve --shards N``,
  and the :class:`~repro.service.shard.ShardRouter` that the same TCP /
  JSON-lines front-ends serve to route, admit, and fail over across it.

Quickstart::

    from repro.service import PredictionService, PredictRequest

    with PredictionService(cache_dir=".repro-cache") as service:
        report = service.predict(PredictRequest("BT", "W", 9, chain_length=3))
        print(report.errors(), service.stats()["cache_hit_ratio"])
"""

from repro.service.api import (
    LineClient,
    RetryPolicy,
    ServiceClient,
    counters_payload,
    error_dict,
    handle_line,
    metrics_payload,
    serve_jsonl,
    serve_socket,
)
from repro.service.batching import RequestBatcher
from repro.service.cache import LRUCache, TieredPredictionCache
from repro.service.engine import PredictRequest, PredictionService
from repro.service.metrics import ServiceMetrics, render_stats
from repro.service.shard import (
    HashRing,
    InProcessShardManager,
    ProcessShardManager,
    ShardRouter,
    ShardServiceConfig,
    make_shard_configs,
    route_key,
)
from repro.service.workers import CellOutcome, WorkerPool, simulate_cell

__all__ = [
    "CellOutcome",
    "HashRing",
    "InProcessShardManager",
    "LRUCache",
    "LineClient",
    "PredictRequest",
    "PredictionService",
    "ProcessShardManager",
    "RequestBatcher",
    "RetryPolicy",
    "ServiceClient",
    "ServiceMetrics",
    "ShardRouter",
    "ShardServiceConfig",
    "TieredPredictionCache",
    "WorkerPool",
    "counters_payload",
    "error_dict",
    "handle_line",
    "make_shard_configs",
    "metrics_payload",
    "render_stats",
    "route_key",
    "serve_jsonl",
    "serve_socket",
    "simulate_cell",
]

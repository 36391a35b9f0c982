"""Service observability: counters, gauges, and latency histograms.

This module is a thin layer over
:class:`repro.obs.registry.MetricsRegistry`: the instrument classes
re-exported here *are* the obs ones, and :class:`ServiceMetrics` creates
its instruments inside a ``service``-namespaced registry so the TCP
``metrics`` command and ``repro metrics`` can export them alongside the
global registry (spans, simulator counters) in one Prometheus/JSON
document. Callers read the instruments as named attributes of
:class:`ServiceMetrics`, a JSON-friendly snapshot from
:meth:`ServiceMetrics.stats`, and text from :func:`render_stats`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analytic.tiers import TIER_ANALYTIC, TIERS
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["Counter", "Gauge", "Histogram", "ServiceMetrics", "render_stats"]

#: Symmetric buckets for *signed* relative error (analytic vs simulation
#: ground truth); the default log buckets only resolve positive values.
SIGNED_ERROR_BUCKETS = (
    -1.0, -0.5, -0.25, -0.1, -0.05, -0.02, -0.01,
    0.0, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0,
)


class ServiceMetrics:
    """Every signal the prediction service emits.

    ``queue_depth_fn`` is polled at snapshot time so the gauge always
    reflects the live worker queue rather than a stale counter. Each
    service instance owns its registry (pass ``registry`` to share one),
    so multiple services in one process do not mix their counts.
    """

    def __init__(
        self,
        queue_depth_fn: Optional[Callable[[], int]] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.registry = registry or MetricsRegistry(namespace="service")
        self.requests = self.registry.counter("requests")
        self.l1_hits = self.registry.counter("l1_hits")
        self.l2_hits = self.registry.counter("l2_hits")
        self.misses = self.registry.counter("misses")
        self.coalesced = self.registry.counter("coalesced")
        self.rejected = self.registry.counter("rejected")
        self.errors = self.registry.counter("errors")
        self.timeouts = self.registry.counter("timeouts")
        self.degraded_rejects = self.registry.counter("degraded_rejects")
        self.batches = self.registry.counter("batches")
        self.simulations = self.registry.counter("simulations")
        self.batch_sizes = self.registry.histogram("batch_sizes")
        self.latency = self.registry.histogram("latency_seconds")
        self.cell_seconds = self.registry.histogram("cell_seconds")
        self.queue_depth = self.registry.gauge("queue_depth")
        self._hit_ratio = self.registry.gauge("cache_hit_ratio")
        # Tier-ladder instruments: one request counter and one latency
        # histogram per rung, plus the analytic tier's escalation counter
        # and its signed relative error against simulation ground truth.
        self.tier_requests = {
            tier: self.registry.counter("tier_requests", tier=tier)
            for tier in TIERS
        }
        self.tier_latency = {
            tier: self.registry.histogram("tier_latency_seconds", tier=tier)
            for tier in TIERS
        }
        self.analytic_escalations = self.registry.counter(
            "analytic_escalations"
        )
        self.analytic_signed_rel_error = self.registry.histogram(
            "tier_signed_rel_error",
            buckets=SIGNED_ERROR_BUCKETS,
            tier=TIER_ANALYTIC,
        )
        self._queue_depth_fn = queue_depth_fn

    def record_tier(self, tier: str, seconds: float) -> None:
        """One request answered by ladder rung ``tier`` in ``seconds``."""
        counter = self.tier_requests.get(tier)
        if counter is None:  # unknown rung: still count, never drop
            counter = self.registry.counter("tier_requests", tier=tier)
            histogram = self.registry.histogram(
                "tier_latency_seconds", tier=tier
            )
        else:
            histogram = self.tier_latency[tier]
        counter.inc()
        histogram.observe(seconds)

    def record_signed_error(self, error: float) -> None:
        """Signed relative error of an analytic answer vs simulation truth."""
        self.analytic_signed_rel_error.observe(error)

    def record_batch(self, size: int) -> None:
        """One dispatched cell answering ``size`` requests."""
        self.batches.inc()
        self.batch_sizes.observe(float(size))

    def cache_hit_ratio(self) -> float:
        """Fraction of requests answered without running a simulation."""
        served = self.requests.value
        if served == 0:
            return 0.0
        hits = self.l1_hits.value + self.l2_hits.value + self.coalesced.value
        return hits / served

    def refresh_gauges(self) -> None:
        """Fold the derived/live signals into their gauges (pre-export)."""
        if self._queue_depth_fn is not None:
            self.queue_depth.set(self._queue_depth_fn())
        self._hit_ratio.set(self.cache_hit_ratio())

    def stats(self) -> dict:
        """A consistent JSON-friendly snapshot of every signal."""
        self.refresh_gauges()
        return {
            "requests": self.requests.value,
            "l1_hits": self.l1_hits.value,
            "l2_hits": self.l2_hits.value,
            "misses": self.misses.value,
            "coalesced": self.coalesced.value,
            "rejected": self.rejected.value,
            "errors": self.errors.value,
            "timeouts": self.timeouts.value,
            "degraded_rejects": self.degraded_rejects.value,
            "batches": self.batches.value,
            "simulations": self.simulations.value,
            "cache_hit_ratio": self.cache_hit_ratio(),
            "tier_requests": {
                tier: counter.value
                for tier, counter in self.tier_requests.items()
            },
            "tier_latency_seconds": {
                tier: histogram.snapshot()
                for tier, histogram in self.tier_latency.items()
            },
            "analytic_escalations": self.analytic_escalations.value,
            "analytic_signed_rel_error": (
                self.analytic_signed_rel_error.snapshot()
            ),
            "batch_size": self.batch_sizes.snapshot(),
            "latency_seconds": self.latency.snapshot(),
            "cell_seconds": self.cell_seconds.snapshot(),
            "queue_depth": self.queue_depth.value,
            "queue_depth_high_water": self.queue_depth.high_water,
        }


def render_stats(stats: dict, indent: int = 0) -> str:
    """Human-readable rendering of a :meth:`ServiceMetrics.stats` snapshot."""
    pad = " " * indent
    lines = []
    for key, value in stats.items():
        if isinstance(value, dict) and any(
            isinstance(v, dict) for v in value.values()
        ):
            # Per-tier families: one indented line per tier label.
            lines.append(f"{pad}{key}:")
            lines.append(render_stats(value, indent=indent + 2))
        elif isinstance(value, dict):
            inner = ", ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in value.items()
            )
            lines.append(f"{pad}{key}: {inner}")
        elif isinstance(value, float):
            lines.append(f"{pad}{key}: {value:.6g}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)

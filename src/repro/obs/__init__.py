"""Unified observability substrate: metrics, spans, logs, exporters.

Every layer of the codebase records into this one package:

* **Metrics** — a process-wide :class:`~repro.obs.registry.MetricsRegistry`
  (:func:`get_registry`) of counters/gauges/histograms. Histograms use
  fixed log-scale buckets (O(1) memory forever, Prometheus-compatible).
  The service keeps its own namespaced registry on top of the same
  classes (:mod:`repro.service.metrics`); the simulator and campaign
  pipeline record into the global one.
* **Spans** — ``with obs.span("campaign.run", benchmark="BT"): ...``
  times a stage, records its duration into the
  ``span_seconds{name=...}`` histogram, and keeps the finished span in a
  bounded ring buffer (:func:`get_tracer`) for the Chrome-trace exporter.
  Span contexts propagate across threads via
  :func:`~repro.obs.tracing.current_context` /
  :func:`~repro.obs.tracing.use_context`, and adopt the wire protocol's
  correlation IDs (:func:`~repro.obs.tracing.correlation`).
* **Logs** — :func:`~repro.obs.logging.log` emits structured
  ``event key=value`` lines stamped with correlation/span IDs.
* **Exporters** — :func:`~repro.obs.export.to_prometheus`,
  :func:`~repro.obs.export.to_json`, and
  :func:`~repro.obs.export.chrome_trace` (Perfetto timelines).

The whole substrate can be switched off (:func:`disable`) for overhead
measurements; the throughput benchmark pins the enabled-vs-disabled cost
of the hot serving path below 10 %.
"""

from __future__ import annotations

import threading

from repro.obs.export import (
    chrome_trace,
    collapsed_spans,
    to_json,
    to_prometheus,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.delta import (
    counter_deltas,
    counter_snapshot,
    deltas_between,
    histogram_deltas,
    histogram_snapshot,
    merge_counter_deltas,
    merge_histogram_deltas,
)
from repro.obs.logging import configure_logging, get_logger, log
from repro.obs.profile import (
    ProfileData,
    SamplingProfiler,
    merge_child_profile,
    tag,
)
from repro.obs.profile import active as profiler_active
from repro.obs.profile import reset_after_fork as _reset_profiler_after_fork
from repro.obs.profile import start as start_profiler
from repro.obs.profile import stop as stop_profiler
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_buckets,
)
from repro.obs.tracing import (
    Span,
    SpanContext,
    Tracer,
    correlation,
    correlation_id,
    current_context,
    current_span,
    span,
    use_context,
)

__all__ = [
    "Counter",
    "DefaultCounter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProfileData",
    "SamplingProfiler",
    "Span",
    "SpanContext",
    "Tracer",
    "DEFAULT_BUCKETS",
    "chrome_trace",
    "collapsed_spans",
    "configure_logging",
    "correlation",
    "correlation_id",
    "counter_deltas",
    "counter_snapshot",
    "current_context",
    "deltas_between",
    "histogram_deltas",
    "histogram_snapshot",
    "merge_counter_deltas",
    "merge_histogram_deltas",
    "current_span",
    "default_buckets",
    "disable",
    "enable",
    "enabled",
    "get_logger",
    "get_registry",
    "get_tracer",
    "log",
    "merge_child_profile",
    "profiler_active",
    "reset",
    "reset_after_fork",
    "span",
    "start_profiler",
    "stop_profiler",
    "tag",
    "to_json",
    "to_prometheus",
    "use_context",
    "validate_chrome_trace",
    "write_chrome_trace",
]

_lock = threading.Lock()
_registry = MetricsRegistry()
_tracer = Tracer()
_enabled = True


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (simulator, pipeline, spans)."""
    return _registry


class DefaultCounter:
    """A counter of the default registry, looked up once per registry.

    ``inc`` lands in whichever registry :func:`get_registry` returns at
    the call, so :func:`reset` and :func:`reset_after_fork` take effect,
    but the by-name lookup runs only when that registry changes.
    """

    __slots__ = ("name", "_bound")

    def __init__(self, name: str) -> None:
        self.name = name
        self._bound: tuple[MetricsRegistry, Counter] | None = None

    def inc(self, amount: int = 1) -> None:
        registry = _registry
        bound = self._bound
        if bound is None or bound[0] is not registry:
            bound = self._bound = (registry, registry.counter(self.name))
        bound[1].inc(amount)


def get_tracer() -> Tracer:
    """The process-wide span ring buffer."""
    return _tracer


def enabled() -> bool:
    """Whether spans/logs/simulator-flushes record anything."""
    return _enabled


def enable() -> None:
    """Turn the substrate on (the default)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn spans, structured logs, and simulator flushes into no-ops.

    Existing explicit instruments (e.g. the service's own counters) keep
    working — this switch exists to measure the substrate's overhead and
    to run the hot path bare.
    """
    global _enabled
    _enabled = False


def reset() -> None:
    """Fresh global registry + tracer (test isolation; re-enables)."""
    global _registry, _tracer, _enabled
    with _lock:
        _registry = MetricsRegistry()
        _tracer = Tracer()
        _enabled = True


def reset_after_fork() -> None:
    """Give a forked worker process observability state of its own.

    Another parent thread may have held the registry's, an instrument's
    or the tracer's lock at the moment of the fork, and such a lock stays
    held forever in the child; the child therefore gets a fresh registry,
    tracer and module lock and never touches the inherited ones. The
    profiler slot is emptied too: the parent's sampler thread does not
    exist in the child. Keeps the enabled/disabled switch.
    """
    global _lock, _registry, _tracer
    _lock = threading.Lock()
    _registry = MetricsRegistry()
    _tracer = Tracer()
    _reset_profiler_after_fork()

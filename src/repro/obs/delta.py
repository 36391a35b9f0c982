"""Counter and histogram delta propagation across process boundaries.

Instruments are process-local; cell pool workers
(:class:`repro.parallel.executor.CellPool`) run in *other* processes, so
their observations never land in the parent's registry by themselves.
The pattern:

1. the child snapshots its instruments before doing work
   (:func:`counter_snapshot`, :func:`histogram_snapshot`),
2. ships home only the *deltas* as plain data (:func:`counter_deltas` —
   ``(name, label_items, amount)`` triples — and
   :func:`histogram_deltas`), JSON/pickle friendly,
3. the parent folds them into its own registry
   (:func:`merge_counter_deltas`, :func:`merge_histogram_deltas`),
   preserving every label.

The span-duration histograms (``span_seconds{name=...}``) travel this
way, so a worker's spans show up in the parent's ``metrics`` even though
the span records themselves stay in the worker.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.obs.registry import Counter, Histogram, MetricsRegistry

__all__ = [
    "counter_snapshot",
    "counter_deltas",
    "deltas_between",
    "histogram_deltas",
    "histogram_snapshot",
    "merge_counter_deltas",
    "merge_histogram_deltas",
]

#: One shipped increment: (counter name, label items tuple, amount).
Delta = Tuple[str, tuple, int]

#: Snapshot form: {(name, label items): cumulative value}.
Snapshot = dict[tuple, int]

#: One shipped histogram movement: (name, label items, bucket bounds,
#: per-bucket count deltas, sum delta, observed min, observed max).
HistogramDelta = Tuple[str, tuple, tuple, tuple, float, float, float]


def _registry_or_default(registry: Optional[MetricsRegistry]):
    if registry is not None:
        return registry
    from repro import obs

    return obs.get_registry()


def counter_snapshot(
    registry: Optional[MetricsRegistry] = None,
) -> Snapshot:
    """Current cumulative counter values, keyed by (name, label items)."""
    return {
        (instrument.name, instrument.labels): instrument.value
        for instrument in _registry_or_default(registry).collect()
        if isinstance(instrument, Counter)
    }


def deltas_between(before: Snapshot, after: Snapshot) -> tuple[Delta, ...]:
    """Positive counter movement from ``before`` to ``after``, sorted."""
    deltas = []
    for (name, labels), value in sorted(after.items()):
        delta = value - before.get((name, labels), 0)
        if delta > 0:
            deltas.append((name, labels, delta))
    return tuple(deltas)


def counter_deltas(
    before: Snapshot,
    registry: Optional[MetricsRegistry] = None,
) -> tuple[Delta, ...]:
    """Counter movement since ``before`` in the (default) registry."""
    return deltas_between(before, counter_snapshot(registry))


def merge_counter_deltas(
    deltas: Iterable[Delta],
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Fold shipped child deltas into the parent's registry."""
    target = _registry_or_default(registry)
    for name, labels, delta in deltas:
        target.counter(name, dict(labels)).inc(delta)


def histogram_snapshot(
    registry: Optional[MetricsRegistry] = None,
) -> dict[tuple, dict]:
    """Current histogram states, keyed by (name, label items)."""
    return {
        (instrument.name, instrument.labels): instrument.state()
        for instrument in _registry_or_default(registry).collect()
        if isinstance(instrument, Histogram)
    }


def histogram_deltas(
    before: dict[tuple, dict],
    registry: Optional[MetricsRegistry] = None,
) -> tuple[HistogramDelta, ...]:
    """Histogram movement since ``before`` in the (default) registry.

    Bucket counts and sums are exact deltas; min and max are the
    histogram's extremes so far, which bound the delta's own (quantile
    estimates only clamp to them, so a wider range loosens the clamp and
    moves no count).
    """
    deltas = []
    for key, state in sorted(histogram_snapshot(registry).items()):
        old = before.get(key)
        if old is not None and old["count"] == state["count"]:
            continue
        counts = state["counts"]
        if old is not None:
            counts = tuple(n - m for n, m in zip(counts, old["counts"]))
        total = state["sum"] - (old["sum"] if old is not None else 0.0)
        name, labels = key
        deltas.append(
            (name, labels, state["bounds"], counts, total,
             state["min"], state["max"])
        )
    return tuple(deltas)


def merge_histogram_deltas(
    deltas: Iterable[HistogramDelta],
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Fold shipped child histogram deltas into the parent's registry."""
    target = _registry_or_default(registry)
    for name, labels, bounds, counts, total, low, high in deltas:
        target.histogram(name, buckets=bounds, labels=dict(labels)).merge(
            counts, total, low, high
        )

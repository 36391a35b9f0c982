"""Process-wide metrics registry: counters, gauges, bucketed histograms.

The registry is the single place every subsystem records numbers into:
the serving layer (:mod:`repro.service.metrics` builds its instruments
here), the simulator (:class:`repro.simmachine.process.Machine` flushes
event/message/cache/noise totals after each run), the campaign pipeline
(per-stage wall time), and the tracer (span duration histograms).

Design constraints, in order:

1. **Hot-path cost** — ``Counter.inc`` and ``Histogram.observe`` are a
   lock acquisition plus integer arithmetic; no allocation, no sorting.
2. **Bounded memory** — a histogram is a fixed array of log-scale bucket
   counts plus exact count/sum/min/max, so a week-long server holds O(1)
   state per instrument (Prometheus-compatible cumulative buckets).
3. **Label support** — instruments are keyed by ``(name, labels)`` so the
   tracer can keep one duration histogram per span name
   (``span_seconds{name="service.predict"}``).

Percentile estimates interpolate inside one log-scale bucket. With the
default bucket growth factor of ``10**(1/12)`` (~21 % per bucket) the
documented worst-case relative error of ``percentile()`` is half a bucket,
about **11 %**; values outside the bucketed range (below 1e-9 s or above
1e5 s) clamp to the observed min/max.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "default_buckets",
    "quantile_from_counts",
]


def default_buckets(
    low: float = 1e-9, high: float = 1e5, per_decade: int = 12
) -> tuple[float, ...]:
    """Geometric bucket upper bounds covering ``[low, high]``.

    ``per_decade`` buckets per factor of ten gives a growth factor of
    ``10**(1/per_decade)`` and a worst-case percentile interpolation error
    of about half that step (~11 % at the default 12/decade).
    """
    if low <= 0 or high <= low:
        raise ValueError(f"need 0 < low < high, got {low}..{high}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    start = math.floor(math.log10(low) * per_decade)
    stop = math.ceil(math.log10(high) * per_decade)
    return tuple(10 ** (e / per_decade) for e in range(start, stop + 1))


#: Shared default bounds: 1 ns .. ~10^5 s in 12 buckets per decade.
DEFAULT_BUCKETS = default_buckets()


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that goes up and down (e.g. queue depth), with a high-water."""

    __slots__ = ("name", "labels", "_value", "_high_water", "_lock")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self._value = 0
        self._high_water = 0
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            self._value = value
            self._high_water = max(self._high_water, value)

    def adjust(self, delta) -> None:
        with self._lock:
            self._value += delta
            self._high_water = max(self._high_water, self._value)

    @property
    def value(self):
        return self._value

    @property
    def high_water(self):
        return self._high_water


class Histogram:
    """Fixed log-scale bucket histogram with exact count/sum/min/max.

    Memory is O(len(buckets)) forever; ``observe`` is a binary search plus
    two adds. Percentiles are interpolated within the winning bucket —
    accurate to about half a bucket width (see the module docstring for the
    default error bound), with the first/last buckets clamped to the exact
    observed min/max so ``percentile(0)``/``percentile(100)`` are exact.
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: tuple = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        # One slot per bound plus the overflow (+Inf) slot.
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def merge(
        self,
        counts: Sequence[int],
        total: float,
        low: Optional[float],
        high: Optional[float],
    ) -> None:
        """Fold in observations recorded elsewhere on the same bounds.

        ``counts`` has one slot per bound plus the overflow slot (the
        :meth:`state` layout), ``total`` is their sum, and ``low``/``high``
        are their extremes.
        """
        if len(counts) != len(self._counts):
            raise ValueError(
                f"histogram {self.name!r}: cannot merge {len(counts)} "
                f"buckets into {len(self._counts)}"
            )
        with self._lock:
            for index, n in enumerate(counts):
                self._counts[index] += n
            self._count += sum(counts)
            self._sum += total
            if low is not None and (self._min is None or low < self._min):
                self._min = low
            if high is not None and (self._max is None or high > self._max):
                self._max = high

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        """Exact mean over every observation (0.0 when empty)."""
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    def state(self) -> dict:
        """Raw cumulative state for delta consumers (:mod:`repro.obs.delta`).

        A consistent copy of ``(counts, count, sum, min, max)`` taken under
        the lock; subtracting two states of the same histogram yields the
        observations that landed between them, which is how a worker
        process ships its histograms home.
        """
        with self._lock:
            return {
                "bounds": self.bounds,
                "counts": tuple(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-th quantile (0.0-1.0) with log interpolation.

        Unlike :meth:`percentile` (linear inside the winning bucket), this
        interpolates *geometrically*, matching the log-scale bucket layout:
        the estimate for a uniform-in-log bucket is exact, and the
        worst-case relative error stays at half a bucket width regardless
        of where in the decade the value falls. The estimate is clamped to
        the observed ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in 0..1, got {q}")
        with self._lock:
            return quantile_from_counts(
                self.bounds, self._counts, q, self._min, self._max
            )

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0-100) from the buckets."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in 0..100, got {p}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = (p / 100.0) * self._count
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= rank:
                    lo = self.bounds[index - 1] if index > 0 else 0.0
                    hi = (
                        self.bounds[index]
                        if index < len(self.bounds)
                        else self._max
                    )
                    # Clamp to the exact observed range so the estimate
                    # never leaves [min, max].
                    lo = max(lo, self._min)
                    hi = min(hi, self._max)
                    if hi <= lo:
                        return lo
                    frac = (rank - cumulative) / bucket_count
                    return lo + (hi - lo) * min(1.0, max(0.0, frac))
                cumulative += bucket_count
            return self._max  # pragma: no cover — defensive

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        Trimmed to the buckets actually in range of the observations, with
        a final ``(inf, total)`` entry, so exposition stays compact.
        """
        with self._lock:
            pairs: list[tuple[float, int]] = []
            cumulative = 0
            for index, bound in enumerate(self.bounds):
                cumulative += self._counts[index]
                if (
                    self._max is not None
                    and bound >= self._min
                    and (index == 0 or self.bounds[index - 1] <= self._max)
                ):
                    pairs.append((bound, cumulative))
            pairs.append((math.inf, self._count))
            return pairs

    def snapshot(self) -> dict[str, float]:
        """count / mean / p50 / p95 / max in one dict."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.max,
        }


def quantile_from_counts(
    bounds: Sequence[float],
    counts: Sequence[int],
    q: float,
    observed_min: Optional[float] = None,
    observed_max: Optional[float] = None,
) -> float:
    """The ``q``-th quantile of a bucketed sample, log-interpolated.

    ``counts`` has one slot per bound plus the overflow slot (the layout
    :meth:`Histogram.state` exposes), and :meth:`Histogram.quantile`
    passes its own. ``observed_min`` / ``observed_max`` (when known) clamp
    the estimate to the really-seen range.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in 0..1, got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= rank:
            lo = bounds[index - 1] if index > 0 else 0.0
            hi = (
                bounds[index]
                if index < len(bounds)
                else (observed_max if observed_max is not None else bounds[-1])
            )
            if observed_min is not None:
                lo = max(lo, observed_min)
            if observed_max is not None:
                hi = min(hi, observed_max)
            if hi <= lo:
                return lo
            frac = min(1.0, max(0.0, (rank - cumulative) / bucket_count))
            if lo > 0:
                # Geometric interpolation: exact for mass uniform in log
                # space, which is the natural prior for log-scale buckets.
                return lo * (hi / lo) ** frac
            return lo + (hi - lo) * frac
        cumulative += bucket_count
    if observed_max is not None:
        return observed_max
    return bounds[-1]  # pragma: no cover — defensive


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create home for every instrument in one process (or subsystem).

    Instruments are identified by ``(name, labels)``; asking twice returns
    the same object, asking for the same name as a different kind raises.
    A ``namespace`` prefixes exported metric names (``service_requests``)
    without touching in-code names.
    """

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, tuple], object] = {}

    def _get_or_create(self, kind, name: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            instrument = kind(name, key[1], **kwargs)
            self._instruments[key] = instrument
            return instrument

    @staticmethod
    def _merge(labels: Optional[dict], kwargs: dict) -> dict:
        return {**(labels or {}), **kwargs}

    def counter(
        self, name: str, labels: Optional[dict] = None, **label_kwargs
    ) -> Counter:
        return self._get_or_create(
            Counter, name, self._merge(labels, label_kwargs)
        )

    def gauge(
        self, name: str, labels: Optional[dict] = None, **label_kwargs
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, self._merge(labels, label_kwargs)
        )

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[dict] = None,
        **label_kwargs,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, self._merge(labels, label_kwargs), buckets=buckets
        )

    def collect(self) -> list:
        """Every registered instrument, sorted by (name, labels)."""
        with self._lock:
            return [
                self._instruments[key] for key in sorted(self._instruments)
            ]

    def snapshot(self) -> dict:
        """JSON-friendly dump: ``name{label=value}`` -> value / histogram dict."""
        out: dict = {}
        for instrument in self.collect():
            key = instrument.name
            if instrument.labels:
                rendered = ",".join(f"{k}={v}" for k, v in instrument.labels)
                key = f"{key}{{{rendered}}}"
            if isinstance(instrument, Counter):
                out[key] = instrument.value
            elif isinstance(instrument, Gauge):
                out[key] = instrument.value
                out[f"{key}.high_water"] = instrument.high_water
            else:
                out[key] = instrument.snapshot()
        return out

    def reset(self) -> None:
        """Drop every instrument (tests; never during serving)."""
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __iter__(self) -> Iterable:
        return iter(self.collect())

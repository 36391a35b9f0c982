"""Serving SLOs: rolling tier quantiles, objectives, error-budget burn.

The service already *measures* everything (per-tier latency histograms,
error/timeout counters — :mod:`repro.service.metrics`); this module turns
those cumulative instruments into *judgements*: is the service meeting its
latency and error-rate objectives right now, and how fast is it burning
the error budget when it is not?

Mechanics: the metrics are monotone cumulative (histogram bucket counts,
counters), so the monitor keeps a bounded ring of **state snapshots** and
diffs the newest against the oldest — a rolling window measured in
observations, with zero cost on the serving path itself (nothing here is
called per request). Quantiles over the window come from the bucket-count
deltas via :func:`repro.obs.registry.quantile_from_counts` — the same
log-interpolating estimator ``Histogram.quantile`` uses, applied to the
window's own distribution rather than the lifetime one.

Objectives are declarative (:class:`SLOObjective`):

* ``latency`` — at least ``target`` of the window's requests (optionally
  of one serving tier) answered within ``threshold`` seconds;
* ``error_rate`` — at most ``1 - target`` of the window's requests failed
  (errors + timeouts).

Each report updates ``slo_burn_rate{objective=...}`` gauges and a
``slo_breaches{objective=...}`` counter in the service registry, so the
Prometheus/JSON exports and the chaos harness see budget burn as ordinary
metrics. Burn rate is the usual SRE ratio: (bad fraction) / (budget
fraction) — 1.0 means burning exactly at budget, 10 means the budget is
gone in a tenth of the window.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.analytic.tiers import TIER_ANALYTIC, TIERS
from repro.errors import ServiceError
from repro.obs.registry import quantile_from_counts
from repro.service.metrics import ServiceMetrics

__all__ = [
    "SLOObjective",
    "SLOMonitor",
    "DEFAULT_OBJECTIVES",
    "parse_objectives",
]

#: Burn-rate ceiling reported when the budget is zero but failures exist
#: (keeps reports JSON-clean; infinity is not valid JSON).
BURN_CAP = 1e6


@dataclass(frozen=True)
class SLOObjective:
    """One objective: a target fraction of good events over the window.

    ``kind="latency"``: good = answered within ``threshold`` seconds
    (``tier=None`` judges the overall latency histogram, a tier name
    judges that rung only). ``kind="error_rate"``: good = not an
    error/timeout; ``threshold`` is unused.
    """

    name: str
    kind: str
    target: float
    threshold: Optional[float] = None
    tier: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "error_rate"):
            raise ServiceError(
                f"objective {self.name!r}: kind must be "
                f"latency|error_rate, got {self.kind!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ServiceError(
                f"objective {self.name!r}: target must be in (0, 1), "
                f"got {self.target}"
            )
        if self.kind == "latency":
            if self.threshold is None or self.threshold <= 0:
                raise ServiceError(
                    f"objective {self.name!r}: latency objectives need a "
                    f"positive threshold, got {self.threshold}"
                )
            if self.tier is not None and self.tier not in TIERS:
                raise ServiceError(
                    f"objective {self.name!r}: unknown tier {self.tier!r}; "
                    f"choose from {sorted(TIERS)}"
                )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "threshold": self.threshold,
            "tier": self.tier,
        }


#: Sensible defaults for the prediction service: the analytic rung must be
#: effectively instant, the overall service must answer within a second,
#: and at most 1 % of requests may fail.
DEFAULT_OBJECTIVES = (
    SLOObjective(
        name="latency.overall", kind="latency", target=0.95, threshold=1.0
    ),
    SLOObjective(
        name="latency.analytic",
        kind="latency",
        target=0.99,
        threshold=0.05,
        tier=TIER_ANALYTIC,
    ),
    SLOObjective(name="availability", kind="error_rate", target=0.99),
)


def parse_objectives(
    specs: Sequence[dict[str, Any]],
) -> tuple[SLOObjective, ...]:
    """Objectives from JSON config (``repro serve --slo-config``)."""
    objectives = []
    for spec in specs:
        unknown = set(spec) - {"name", "kind", "target", "threshold", "tier"}
        if unknown:
            raise ServiceError(
                f"unknown objective fields: {sorted(unknown)}"
            )
        try:
            objectives.append(
                SLOObjective(
                    name=str(spec["name"]),
                    kind=str(spec["kind"]),
                    target=float(spec["target"]),
                    threshold=(
                        float(spec["threshold"])
                        if spec.get("threshold") is not None
                        else None
                    ),
                    tier=spec.get("tier"),
                )
            )
        except KeyError as exc:
            raise ServiceError(
                f"objective missing field {exc.args[0]!r}"
            ) from None
    return tuple(objectives)


def _count_above(
    bounds: Sequence[float], counts: Sequence[int], threshold: float
) -> float:
    """Estimated number of bucketed samples strictly above ``threshold``.

    Buckets entirely above count fully; the straddling bucket contributes
    the log-space fraction of its width above the threshold (matching the
    quantile estimator's interpolation model).
    """
    above = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        lo = bounds[index - 1] if index > 0 else 0.0
        hi = bounds[index] if index < len(bounds) else float("inf")
        if lo >= threshold:
            above += count
        elif hi > threshold:
            if hi == float("inf"):
                above += count
            elif lo > 0:
                frac = (math.log(hi) - math.log(threshold)) / (
                    math.log(hi) - math.log(lo)
                )
                above += count * max(0.0, min(1.0, frac))
            else:
                above += count * max(
                    0.0, min(1.0, (hi - threshold) / (hi - lo))
                )
    return above


def _delta_counts(
    newest: dict[str, Any], oldest: Optional[dict[str, Any]]
) -> tuple[tuple[float, ...], list[int]]:
    bounds = newest["bounds"]
    if oldest is None:
        return bounds, list(newest["counts"])
    return bounds, [
        n - o for n, o in zip(newest["counts"], oldest["counts"])
    ]


class SLOMonitor:
    """Rolling SLO judgements over a window of metric snapshots."""

    QUANTILES = (0.5, 0.95, 0.99)

    def __init__(
        self,
        metrics: ServiceMetrics,
        objectives: Sequence[SLOObjective] = DEFAULT_OBJECTIVES,
        window: int = 60,
    ):
        if window < 2:
            raise ServiceError(f"window must be >= 2, got {window}")
        self.metrics = metrics
        self.objectives = tuple(objectives)
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate objective names in {names}")
        self._snapshots: deque = deque(maxlen=window)

    # -- snapshotting ------------------------------------------------------

    def _capture(self) -> dict[str, Any]:
        m = self.metrics
        return {
            "latency": m.latency.state(),
            "tiers": {
                tier: histogram.state()
                for tier, histogram in m.tier_latency.items()
            },
            "counters": {
                "requests": m.requests.value,
                "errors": m.errors.value,
                "timeouts": m.timeouts.value,
                "rejected": m.rejected.value,
                "degraded_rejects": m.degraded_rejects.value,
            },
        }

    # -- reporting ---------------------------------------------------------

    def observe(self) -> dict[str, Any]:
        """Take a snapshot and judge the window it closes.

        The window is [oldest retained snapshot, now]; the first call
        judges everything since the service started.
        """
        oldest = self._snapshots[0] if self._snapshots else None
        newest = self._capture()
        self._snapshots.append(newest)
        report = self._judge(newest, oldest)
        self._export(report)
        return report

    def _quantiles(
        self, newest_state: dict, oldest_state: Optional[dict]
    ) -> dict[str, Any]:
        bounds, counts = _delta_counts(newest_state, oldest_state)
        total = sum(counts)
        doc: dict[str, Any] = {"requests": total}
        for q in self.QUANTILES:
            key = f"p{int(q * 100)}"
            doc[key] = (
                quantile_from_counts(
                    bounds,
                    counts,
                    q,
                    newest_state["min"],
                    newest_state["max"],
                )
                if total
                else 0.0
            )
        return doc

    def _judge(
        self, newest: dict[str, Any], oldest: Optional[dict[str, Any]]
    ) -> dict[str, Any]:
        counters_now = newest["counters"]
        counters_then = (
            oldest["counters"] if oldest is not None else {}
        )
        window_counts = {
            key: value - counters_then.get(key, 0)
            for key, value in counters_now.items()
        }
        tiers = {
            tier: self._quantiles(
                state,
                oldest["tiers"].get(tier) if oldest is not None else None,
            )
            for tier, state in newest["tiers"].items()
        }
        overall = self._quantiles(
            newest["latency"],
            oldest["latency"] if oldest is not None else None,
        )
        judged = []
        breaches = 0
        for objective in self.objectives:
            verdict = self._judge_objective(objective, newest, oldest)
            judged.append(verdict)
            if not verdict["met"]:
                breaches += 1
        return {
            "window": {
                "snapshots": len(self._snapshots),
                **window_counts,
            },
            "overall": overall,
            "tiers": tiers,
            "objectives": judged,
            "breaches": breaches,
        }

    def _judge_objective(
        self,
        objective: SLOObjective,
        newest: dict[str, Any],
        oldest: Optional[dict[str, Any]],
    ) -> dict[str, Any]:
        if objective.kind == "latency":
            if objective.tier is None:
                newest_state = newest["latency"]
                oldest_state = (
                    oldest["latency"] if oldest is not None else None
                )
            else:
                newest_state = newest["tiers"][objective.tier]
                oldest_state = (
                    oldest["tiers"].get(objective.tier)
                    if oldest is not None
                    else None
                )
            bounds, counts = _delta_counts(newest_state, oldest_state)
            total = sum(counts)
            bad = _count_above(bounds, counts, objective.threshold)
        else:
            counters_then = oldest["counters"] if oldest is not None else {}
            total = newest["counters"]["requests"] - counters_then.get(
                "requests", 0
            )
            bad = sum(
                newest["counters"][key] - counters_then.get(key, 0)
                for key in ("errors", "timeouts")
            )
        good = max(0.0, total - bad)
        compliance = (good / total) if total else 1.0
        budget_fraction = 1.0 - objective.target
        bad_fraction = (bad / total) if total else 0.0
        burn = (
            min(bad_fraction / budget_fraction, BURN_CAP)
            if budget_fraction > 0
            else (0.0 if bad == 0 else BURN_CAP)
        )
        return {
            **objective.to_dict(),
            "total": total,
            "bad": round(bad, 3),
            "compliance": compliance,
            "burn_rate": burn,
            "met": compliance >= objective.target,
        }

    def _export(self, report: dict[str, Any]) -> None:
        """Mirror the judgement into the service registry as instruments."""
        registry = self.metrics.registry
        for verdict in report["objectives"]:
            labels = {"objective": verdict["name"]}
            registry.gauge("slo_burn_rate", **labels).set(
                verdict["burn_rate"]
            )
            registry.gauge("slo_compliance", **labels).set(
                verdict["compliance"]
            )
            if not verdict["met"]:
                registry.counter("slo_breaches", **labels).inc()


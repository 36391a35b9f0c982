"""Append-only performance ledger with a noise-aware regression gate.

Before this module the repo's performance record was three one-shot
snapshot files (``BENCH_engine.json``, ``BENCH_campaign.json``,
``BENCH_tiers.json``), each with its own shape and no history — a number
could regress 30 % and nothing would notice as long as the snapshot still
cleared its own absolute floor. The ledger replaces that with one schema:

* every benchmark run **appends** an entry — series name, metrics (each a
  value + unit + direction), sample count, the host fingerprint it ran on,
  and the commit/timestamp *passed in by the caller* (REP001: nothing in
  the library reads a wall clock; benchmarks stamp their own entries);
* :func:`check` compares each series' newest entry against the median of
  its **same-host** history, with a tolerance of ``k`` MADs (median
  absolute deviation — a noise estimate that two outliers can't poison)
  floored at a relative band, so a noisy laptop run doesn't page anyone
  and a real regression does;
* histories shorter than ``min_history`` report ``cold`` instead of a
  verdict, which CI treats as warn-only (`repro bench check` exit 0) —
  the gate can be wired in before the history exists without flaking.

Entries are persisted as a single JSON document via atomic replace, and
:func:`migrate_legacy` folds the three historical BENCH files in as the
first same-schema generation so no history is lost.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.errors import ReproError

__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_FILENAME",
    "Metric",
    "Finding",
    "PerfLedger",
    "host_fingerprint",
    "make_entry",
    "check_entries",
    "migrate_legacy",
]

LEDGER_SCHEMA = 1
LEDGER_FILENAME = "PERF_LEDGER.json"

#: ``direction`` values: which way is better for a metric.
HIGHER = "higher"
LOWER = "lower"


def host_fingerprint() -> dict[str, Any]:
    """A stable identity for "numbers from this machine are comparable".

    Regression checks only compare entries whose fingerprints match:
    an entry recorded on a 4-core CI runner never gates one from a
    32-core workstation.
    """
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "python": "{}.{}".format(*sys.version_info[:2]),
        "impl": platform.python_implementation(),
        "cpus": os.cpu_count() or 1,
    }


def make_entry(
    series: str,
    metrics: dict[str, dict[str, Any]],
    timestamp: float,
    commit: Optional[str] = None,
    samples: int = 1,
    meta: Optional[dict[str, Any]] = None,
    host: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Build one schema-valid ledger entry.

    ``metrics`` maps metric name to ``{"value": float, "unit": str,
    "direction": "higher"|"lower"}`` — direction tells the regression
    detector which tail is bad. ``timestamp``/``commit`` come from the
    caller (``time.time()`` and ``git rev-parse`` live in benchmark code
    and the CLI, never here).
    """
    if not series:
        raise ReproError("ledger entry needs a non-empty series name")
    if not metrics:
        raise ReproError(f"ledger entry for {series!r} has no metrics")
    for name, metric in metrics.items():
        if "value" not in metric:
            raise ReproError(f"metric {series}/{name} missing 'value'")
        direction = metric.get("direction", LOWER)
        if direction not in (HIGHER, LOWER):
            raise ReproError(
                f"metric {series}/{name} direction must be "
                f"higher|lower, got {direction!r}"
            )
    return {
        "series": series,
        "timestamp": float(timestamp),
        "commit": commit,
        "host": host if host is not None else host_fingerprint(),
        "samples": int(samples),
        "metrics": {
            name: {
                "value": float(metric["value"]),
                "unit": str(metric.get("unit", "")),
                "direction": metric.get("direction", LOWER),
            }
            for name, metric in metrics.items()
        },
        "meta": dict(meta) if meta else {},
    }


class PerfLedger:
    """The on-disk ledger: one JSON document, appended atomically."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: list[dict[str, Any]] = []
        if self.path.exists():
            document = json.loads(self.path.read_text(encoding="utf-8"))
            if document.get("schema") != LEDGER_SCHEMA:
                raise ReproError(
                    f"{self.path}: unsupported ledger schema "
                    f"{document.get('schema')!r}"
                )
            self._entries = list(document.get("entries", []))

    @property
    def entries(self) -> list[dict[str, Any]]:
        return list(self._entries)

    def series(self, name: str) -> list[dict[str, Any]]:
        """Entries of one series, oldest first (append order)."""
        return [e for e in self._entries if e.get("series") == name]

    def series_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for entry in self._entries:
            seen.setdefault(entry.get("series", "?"))
        return list(seen)

    def append(self, entry: dict[str, Any]) -> None:
        """Append one entry and persist (atomic tmp + replace)."""
        self._entries.append(entry)
        self.save()

    def save(self) -> None:
        document = {"schema": LEDGER_SCHEMA, "entries": self._entries}
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.path)

    def __len__(self) -> int:
        return len(self._entries)


# -- regression detection ---------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """One metric of one entry, denormalised for checking."""

    series: str
    name: str
    value: float
    unit: str
    direction: str


@dataclass(frozen=True)
class Finding:
    """The verdict for one (series, metric) pair.

    ``status`` is ``ok`` | ``regression`` | ``improved`` | ``cold``;
    ``ratio`` is current/median (1.0 when no history).
    """

    metric: Metric
    status: str
    median: float = 0.0
    tolerance: float = 0.0
    history: int = 0
    ratio: float = 1.0
    detail: str = ""

    @property
    def is_regression(self) -> bool:
        return self.status == "regression"


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _same_host(a: dict[str, Any], b: dict[str, Any]) -> bool:
    return a == b


def check_entries(
    entries: Sequence[dict[str, Any]],
    min_history: int = 3,
    mads: float = 4.0,
    rel_floor: float = 0.10,
) -> list[Finding]:
    """Judge the newest entry of every series against its history.

    For each metric of the newest entry: collect the metric's values from
    *earlier* entries of the same series recorded on the same host
    fingerprint. With fewer than ``min_history`` of those, the verdict is
    ``cold``. Otherwise the allowed band around the history median is
    ``max(mads * MAD, rel_floor * |median|)`` — wide when history is noisy,
    never tighter than the relative floor — and a value beyond the band on
    the metric's *bad* side (direction-aware) is a ``regression``; beyond
    it on the good side, ``improved``.
    """
    findings: list[Finding] = []
    by_series: dict[str, list[dict[str, Any]]] = {}
    for entry in entries:
        by_series.setdefault(entry.get("series", "?"), []).append(entry)
    for series, series_entries in by_series.items():
        newest = series_entries[-1]
        prior = [
            e
            for e in series_entries[:-1]
            if _same_host(e.get("host", {}), newest.get("host", {}))
        ]
        for name, metric_doc in newest.get("metrics", {}).items():
            metric = Metric(
                series=series,
                name=name,
                value=float(metric_doc["value"]),
                unit=metric_doc.get("unit", ""),
                direction=metric_doc.get("direction", LOWER),
            )
            history = [
                float(e["metrics"][name]["value"])
                for e in prior
                if name in e.get("metrics", {})
            ]
            if len(history) < min_history:
                findings.append(
                    Finding(
                        metric=metric,
                        status="cold",
                        history=len(history),
                        detail=(
                            f"history {len(history)} < {min_history} "
                            "same-host entries"
                        ),
                    )
                )
                continue
            median = _median(history)
            mad = _median([abs(v - median) for v in history])
            tolerance = max(mads * mad, rel_floor * abs(median))
            deviation = metric.value - median
            bad = (
                deviation > tolerance
                if metric.direction == LOWER
                else deviation < -tolerance
            )
            good = (
                deviation < -tolerance
                if metric.direction == LOWER
                else deviation > tolerance
            )
            status = "regression" if bad else "improved" if good else "ok"
            findings.append(
                Finding(
                    metric=metric,
                    status=status,
                    median=median,
                    tolerance=tolerance,
                    history=len(history),
                    ratio=(metric.value / median) if median else 1.0,
                    detail=(
                        f"value {metric.value:g} vs median {median:g} "
                        f"± {tolerance:g} over {len(history)} runs"
                    ),
                )
            )
    return findings


# -- legacy BENCH_*.json migration ------------------------------------------


def _engine_metrics(doc: dict[str, Any]) -> dict[str, dict[str, Any]]:
    metrics: dict[str, dict[str, Any]] = {}
    for workload, value in doc.get("current_events_per_sec", {}).items():
        metrics[f"{workload}.events_per_sec"] = {
            "value": value,
            "unit": "events/s",
            "direction": HIGHER,
        }
    for workload, value in doc.get("speedup", {}).items():
        metrics[f"{workload}.speedup"] = {
            "value": value,
            "unit": "x",
            "direction": HIGHER,
        }
    return metrics


def _campaign_metrics(doc: dict[str, Any]) -> dict[str, dict[str, Any]]:
    metrics: dict[str, dict[str, Any]] = {}
    for key, unit, direction in (
        ("serial_seconds", "s", LOWER),
        ("parallel_cold_seconds", "s", LOWER),
        ("parallel_warm_seconds", "s", LOWER),
        ("cold_speedup", "x", HIGHER),
        ("warm_speedup", "x", HIGHER),
    ):
        if key in doc:
            metrics[key] = {
                "value": doc[key],
                "unit": unit,
                "direction": direction,
            }
    return metrics


def _tiers_metrics(doc: dict[str, Any]) -> dict[str, dict[str, Any]]:
    metrics: dict[str, dict[str, Any]] = {}
    for cell in doc.get("golden_cells", []):
        stem = "{}.{}.{}".format(
            cell.get("benchmark", "?"),
            cell.get("problem_class", "?"),
            cell.get("nprocs", "?"),
        )
        if "speedup" in cell:
            metrics[f"{stem}.analytic_speedup"] = {
                "value": cell["speedup"],
                "unit": "x",
                "direction": HIGHER,
            }
        if "expected_rel_error" in cell:
            metrics[f"{stem}.expected_rel_error"] = {
                "value": cell["expected_rel_error"],
                "unit": "rel",
                "direction": LOWER,
            }
    return metrics


_LEGACY = {
    "BENCH_engine.json": ("engine", _engine_metrics),
    "BENCH_campaign.json": ("campaign", _campaign_metrics),
    "BENCH_tiers.json": ("tiers", _tiers_metrics),
}


def migrate_legacy(
    ledger: PerfLedger,
    root: str | Path,
    timestamp: float,
    commit: Optional[str] = None,
) -> list[str]:
    """Fold any legacy ``BENCH_*.json`` snapshots under ``root`` into the
    ledger as first-generation entries (the original documents ride along
    untouched in each entry's ``meta.legacy``). Series that already have a
    migrated entry are skipped, so the migration is idempotent. Returns
    the series migrated on this call.
    """
    root = Path(root)
    migrated: list[str] = []
    already = {
        entry["series"]
        for entry in ledger.entries
        if entry.get("meta", {}).get("migrated_from")
    }
    for filename, (series, extract) in _LEGACY.items():
        path = root / filename
        if not path.exists() or series in already:
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        metrics = extract(doc)
        if not metrics:
            continue
        ledger.append(
            make_entry(
                series=series,
                metrics=metrics,
                timestamp=timestamp,
                commit=commit,
                samples=1,
                meta={"migrated_from": filename, "legacy": doc},
            )
        )
        migrated.append(series)
    return migrated

"""Wall-clock acceptance benchmarks for the parallel campaign executor.

Three runs of the same campaign — serial, cold cache with ``--jobs 4``,
and warm cache — must produce bit-identical predictions (REP001) while
the warm run amortises every simulation into memo lookups.  The measured
wall-clock numbers are written to ``BENCH_campaign.json`` at the repo
root so CI artifacts double as the speedup record.

The cold-cache parallel speedup needs real cores: on a single-core host
the worker pool can only add spawn overhead, so the ``>= 2x`` assertion
is gated on ``os.cpu_count()`` and the host's core count is recorded in
the artifact instead of being papered over.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks._ledger import record_bench
from repro.experiments import ExperimentPipeline, ExperimentSettings
from repro.instrument import MeasurementConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Same protocol as the table benchmarks: the memo must pay for real runs.
CAMPAIGN_MEASUREMENT = MeasurementConfig(repetitions=6, warmup=2, seed=0)

CLASSES = ["S", "W"]
PROCS = [4, 9]
CHAINS = [2, 3]
JOBS = 4


def _campaign(memo=None, jobs=1):
    pipeline = ExperimentPipeline(
        ExperimentSettings(measurement=CAMPAIGN_MEASUREMENT),
        memo=memo,
        jobs=jobs,
    )
    start = time.perf_counter()
    results = [
        result
        for problem_class in CLASSES
        for result in pipeline.sweep(
            "BT", problem_class, PROCS, chain_lengths=CHAINS
        )
    ]
    return pipeline, results, time.perf_counter() - start


def _assert_identical(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert a.actual == b.actual
        assert a.summation == b.summation
        for length in CHAINS:
            assert a.coupling_prediction(length) == b.coupling_prediction(
                length
            )
        assert a.inputs == b.inputs


def test_parallel_campaign_speedup(tmp_path):
    cache = tmp_path / "memo"
    cpu_count = os.cpu_count() or 1

    _, serial, serial_s = _campaign()
    _, cold, cold_s = _campaign(memo=cache, jobs=JOBS)
    warm_pipeline, warm, warm_s = _campaign(memo=cache, jobs=JOBS)

    # REP001 pays off: all three runs are bit-identical.
    _assert_identical(serial, cold)
    _assert_identical(cold, warm)

    # The warm run resolved every simulation from the memo.
    memo_stats = warm_pipeline.memo.stats()
    assert memo_stats["misses"] == 0
    assert memo_stats["stores"] == 0
    assert memo_stats["hits"] > 0

    cold_speedup = serial_s / cold_s
    warm_speedup = serial_s / warm_s

    record = {
        "benchmark": "BT",
        "classes": CLASSES,
        "procs": PROCS,
        "chain_lengths": CHAINS,
        "cells": len(CLASSES) * len(PROCS),
        "jobs": JOBS,
        "cpu_count": cpu_count,
        "serial_seconds": round(serial_s, 4),
        "parallel_cold_seconds": round(cold_s, 4),
        "parallel_warm_seconds": round(warm_s, 4),
        "cold_speedup": round(cold_speedup, 3),
        "warm_speedup": round(warm_speedup, 3),
        "warm_memo_stats": memo_stats,
        "note": (
            "cold_speedup is only meaningful with >= 2 cores; the "
            ">= 2x assertion is skipped below 4 cores and the host "
            "core count is recorded here instead"
        ),
    }
    (REPO_ROOT / "BENCH_campaign.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    record_bench("campaign", record, meta={"cpu_count": cpu_count})

    # Warm-cache speedup is hardware-independent: lookups beat simulation.
    assert warm_speedup >= 10.0, record
    # Cold-cache speedup needs cores for the pool to spread work across.
    if cpu_count >= 4:
        assert cold_speedup >= 2.0, record

"""Wall-clock acceptance benchmark for the tiered-serving ladder.

For the golden class-A cells the analytic rung must answer at least 100x
faster than the discrete-event simulation while staying within the
documented accuracy bound (:data:`ANALYTIC_REL_ERROR_BOUND`) of the
simulated per-kernel ``E_k`` and application totals.  Per-tier latency,
speedup, and signed relative error are printed as one JSON line
(``pytest -rP`` keeps it in the log); no file is written.

The claim is about a served request: a server's analytic rung builds a
fresh predictor per request in a process that has already answered one.
So the analytic side is the median of :data:`ANALYTIC_SAMPLES` fresh
``for_config(...).report((2,))`` calls, each on a newly built predictor,
after one first call that the claim does not count (its time is printed
as ``analytic_first_call_seconds``).
"""

from __future__ import annotations

import json
import statistics
import time

from repro.analytic.model import ANALYTIC_REL_ERROR_BOUND, AnalyticPredictor
from repro.experiments import ExperimentPipeline, ExperimentSettings
from repro.instrument import MeasurementConfig
from repro.simmachine.machine import ibm_sp_argonne

#: Same protocol as the table benchmarks.
TIER_MEASUREMENT = MeasurementConfig(repetitions=6, warmup=2, seed=0)

#: The golden cells: one per supported benchmark, at the paper tables'
#: class-A process counts.
GOLDEN_CELLS = [("BT", "A", 16), ("SP", "A", 16), ("LU", "A", 8)]

MIN_SPEEDUP = 100.0

#: Timed analytic reports per cell, after one warm-up call.
ANALYTIC_SAMPLES = 25


def _analytic_seconds(machine, bench, problem_class, nprocs):
    """One fresh predictor's ``report((2,))``: its wall time and report."""
    start = time.perf_counter()
    report = AnalyticPredictor.for_config(
        machine, bench, problem_class, nprocs
    ).report((2,))
    return time.perf_counter() - start, report


def test_analytic_tier_speedup_and_accuracy():
    machine = ibm_sp_argonne()
    cells = []
    for bench, problem_class, nprocs in GOLDEN_CELLS:
        pipeline = ExperimentPipeline(
            ExperimentSettings(measurement=TIER_MEASUREMENT)
        )
        start = time.perf_counter()
        simulated = pipeline.config_result(bench, problem_class, nprocs, (2,))
        sim_s = time.perf_counter() - start

        first_s, analytic = _analytic_seconds(
            machine, bench, problem_class, nprocs
        )
        ana_s = statistics.median(
            _analytic_seconds(machine, bench, problem_class, nprocs)[0]
            for _ in range(ANALYTIC_SAMPLES)
        )

        speedup = sim_s / ana_s
        kernel_errors = {
            kernel: (analytic.inputs.loop_times[kernel] - actual) / actual
            for kernel, actual in simulated.inputs.loop_times.items()
        }
        app_error = (analytic.actual - simulated.actual) / simulated.actual
        cells.append(
            {
                "benchmark": bench,
                "problem_class": problem_class,
                "nprocs": nprocs,
                "simulation_seconds": round(sim_s, 4),
                "analytic_seconds": round(ana_s, 6),
                "analytic_first_call_seconds": round(first_s, 6),
                "speedup": round(speedup, 1),
                "signed_app_rel_error": round(app_error, 4),
                "signed_kernel_rel_errors": {
                    k: round(v, 4) for k, v in kernel_errors.items()
                },
                "max_abs_kernel_rel_error": round(
                    max(abs(v) for v in kernel_errors.values()), 4
                ),
                "expected_rel_error": round(analytic.expected_rel_error, 4),
            }
        )

    record = {
        "golden_cells": cells,
        "min_speedup_required": MIN_SPEEDUP,
        "rel_error_bound": ANALYTIC_REL_ERROR_BOUND,
        "chain_length": 2,
        "note": (
            "speedup = wall-clock of one full simulated cell (isolated + "
            "chains + application) over the median of "
            f"{ANALYTIC_SAMPLES} fresh analytic reports for the same cell, "
            "after one uncounted first call; errors are signed "
            "analytic-vs-simulation relative errors"
        ),
    }
    print(json.dumps(record, sort_keys=True))

    for cell in cells:
        assert cell["speedup"] >= MIN_SPEEDUP, record
        assert (
            cell["max_abs_kernel_rel_error"] <= ANALYTIC_REL_ERROR_BOUND
        ), record
        assert abs(cell["signed_app_rel_error"]) <= ANALYTIC_REL_ERROR_BOUND, (
            record
        )

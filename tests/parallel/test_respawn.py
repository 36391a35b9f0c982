"""Worker death mid-measurement: the pool respawns, deltas merge once.

The executor's recovery contract (see :mod:`repro.parallel.executor`):
when a worker is killed mid-measurement the pool is rebuilt and only the
lost measurements that still have no record are resubmitted, so completed
work is never re-run and every counter/profile delta reaches the parent
registry exactly once — the killed attempt contributes nothing, its
respawned attempt contributes once.
"""

from __future__ import annotations

import functools
import os
import signal

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro import obs
from repro.instrument import MeasurementConfig
from repro.obs.profile import ProfileData
from repro.parallel.executor import execute_cells
from repro.parallel.worker import CellSpec, MeasureResult, missing_measurements
from repro.simmachine.machine import ibm_sp_argonne

#: The measurement the doomed worker picks up: one chain window of one
#: cell, dispatched once that cell's overhead is stored.
KILL_NPROCS = 9
KILL_KERNELS = ("X_SOLVE", "Y_SOLVE")


def _spec(nprocs: int, cache_dir) -> CellSpec:
    return CellSpec(
        benchmark="BT",
        problem_class="S",
        nprocs=nprocs,
        chain_lengths=(2,),
        machine=ibm_sp_argonne(),
        measurement=MeasurementConfig(repetitions=1, warmup=0, seed=0),
        cache_dir=str(cache_dir),
    )


def _stub_measurement(
    spec: CellSpec, kernels, flag_path=None
) -> MeasureResult:
    """Module-level executor seam (REP007: picklable, no captured state).

    The first worker to pick up the ``KILL_KERNELS`` window of the
    ``KILL_NPROCS`` cell removes the flag file and SIGKILLs itself
    mid-measurement — the same failure shape as an OOM kill. The
    resubmitted attempt finds no flag and completes normally. The stub
    writes no record, so every measurement it completes is counted by its
    delta alone, and the parent's assembly simulates the cells itself.
    """
    if (
        flag_path is not None
        and spec.nprocs == KILL_NPROCS
        and kernels == KILL_KERNELS
        and os.path.exists(flag_path)
    ):
        os.remove(flag_path)
        os.kill(os.getpid(), signal.SIGKILL)
    profile = ProfileData(0.01)
    profile.record(("worker:measurement",), ("measure.span",), 0.0, 1)
    return MeasureResult(
        memo_stats={},
        counters=(("respawn_test_measurements", (), 1),),
        duration=0.01,
        profile=profile.to_dict(),
    )


def test_killed_worker_respawns_and_merges_once(tmp_path):
    flag = tmp_path / "kill-once"
    flag.write_text("armed")
    specs = [_spec(n, tmp_path) for n in (4, 9, 16, 25)]
    measurements = sum(len(missing_measurements(s)) for s in specs)
    run = functools.partial(_stub_measurement, flag_path=str(flag))

    profiler = obs.SamplingProfiler(interval=10.0, backend="thread").start()
    try:
        results = execute_cells(specs, jobs=2, _measure=run)
    finally:
        data = profiler.stop()

    # Every cell completed, in submission order.
    assert [r.nprocs for r in results] == [4, 9, 16, 25]
    assert not flag.exists()  # the kill really happened

    snapshot = obs.get_registry().snapshot()
    # One pool rebuild, and one delta per measurement despite the lost
    # attempts: completed measurements never re-ran, lost ones re-ran.
    assert snapshot["parallel_worker_respawns"] == 1
    assert snapshot["respawn_test_measurements"] == measurements
    # Worker profiles crossed the boundary exactly once per task too.
    assert data.samples[("worker:measurement",)] == measurements
    assert data.span_samples[("measure.span",)] == measurements


def test_persistent_killer_exhausts_respawn_budget(tmp_path):
    flag = tmp_path / "kill-always"
    specs = [_spec(n, tmp_path) for n in (4, 9, 16)]
    run = functools.partial(_stub_measurement, flag_path=str(flag))

    flag.write_text("armed")
    with pytest.raises(BrokenProcessPool):
        # Re-arm the flag after each pool break via max_respawns=0: the
        # first break must propagate instead of retrying forever.
        execute_cells(specs, jobs=2, max_respawns=0, _measure=run)
    assert obs.get_registry().snapshot()["parallel_worker_respawns"] == 1


def test_serial_path_ignores_respawn_machinery(tmp_path):
    specs = [_spec(4, tmp_path)]
    results = execute_cells(specs, jobs=1, _measure=_stub_measurement)
    assert [r.nprocs for r in results] == [4]
    assert "parallel_worker_respawns" not in obs.get_registry().snapshot()

"""Worker death mid-cell: the pool respawns, deltas merge exactly once.

The executor's recovery contract (see :mod:`repro.parallel.executor`):
when a worker is killed mid-cell the pool is rebuilt and only the cells
with no result yet are resubmitted, so completed work is never re-run and
every counter/profile delta reaches the parent registry exactly once —
the killed attempt contributes nothing, its respawned attempt contributes
once.
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
from repro.parallel.worker import CellResult, CellSpec
from repro.simmachine.machine import ibm_sp_argonne

#: The cell the doomed worker picks up (distinguished by nprocs).
KILL_NPROCS = 9


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


def _stub_cell(spec: CellSpec, flag_path=None) -> CellResult:
    """Module-level executor seam (REP007: picklable, no captured state).

    The first worker to pick up the ``KILL_NPROCS`` cell removes the flag
    file and SIGKILLs itself mid-cell — the same failure shape as an OOM
    kill. The resubmitted attempt finds no flag and completes normally.
    """
    if (
        flag_path is not None
        and spec.nprocs == KILL_NPROCS
        and os.path.exists(flag_path)
    ):
        os.remove(flag_path)
        os.kill(os.getpid(), signal.SIGKILL)
    profile = ProfileData(0.01)
    profile.record(("worker:cell",), ("cell.span",), 0.0, 1)
    return CellResult(
        benchmark=spec.benchmark,
        problem_class=spec.problem_class,
        nprocs=spec.nprocs,
        chain_lengths=spec.chain_lengths,
        actual=float(spec.nprocs),
        inputs={},
        memo_stats={},
        counters=(("respawn_test_cells", (), 1),),
        duration=0.01,
        profile=profile.to_dict(),
    )


def test_killed_worker_respawns_and_merges_once(tmp_path):
    flag = tmp_path / "kill-once"
    flag.write_text("armed")
    specs = [_spec(n, tmp_path) for n in (4, 9, 16, 25)]
    run = functools.partial(_stub_cell, flag_path=str(flag))

    profiler = obs.SamplingProfiler(interval=10.0, backend="thread").start()
    try:
        results = execute_cells(specs, jobs=2, _run=run)
    finally:
        data = profiler.stop()

    # Every cell completed, in submission order, exactly once.
    assert [r.nprocs for r in results] == [4, 9, 16, 25]
    assert not flag.exists()  # the kill really happened

    snapshot = obs.get_registry().snapshot()
    # One pool rebuild, and one delta per cell despite the lost attempt.
    assert snapshot["parallel_worker_respawns"] == 1
    assert snapshot["respawn_test_cells"] == len(specs)
    # Worker profiles crossed the boundary exactly once per cell too.
    assert data.samples[("worker:cell",)] == len(specs)
    assert data.span_samples[("cell.span",)] == len(specs)


def test_persistent_killer_exhausts_respawn_budget(tmp_path):
    flag = tmp_path / "kill-always"
    specs = [_spec(n, tmp_path) for n in (4, 9, 16)]
    run = functools.partial(_stub_cell, flag_path=str(flag))

    flag.write_text("armed")
    with pytest.raises(BrokenProcessPool):
        # Re-arm the flag after each pool break via max_respawns=0: the
        # first break must propagate instead of retrying forever.
        execute_cells(specs, jobs=2, max_respawns=0, _run=run)
    assert obs.get_registry().snapshot()["parallel_worker_respawns"] == 1


def test_serial_path_ignores_respawn_machinery(tmp_path):
    specs = [_spec(4, tmp_path)]
    results = execute_cells(specs, jobs=1, _run=_stub_cell)
    assert [r.nprocs for r in results] == [4]
    assert "parallel_worker_respawns" not in obs.get_registry().snapshot()

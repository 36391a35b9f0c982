"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q -p no:cacheprovider``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workload  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def tree_state(root: Path) -> dict[str, tuple[int, int]]:
    """Every file of the checkout with its size and mtime, caches aside."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            path = Path(dirpath) / name
            stat = path.stat()
            state[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return state


def git_status(root: Path):
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"], cwd=str(root),
            capture_output=True, text=True, timeout=60,
        )
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def declared(kind: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_tracer_restores_every_wrapped_function():
    originals = [
        (owner, attr, owner.__dict__[attr])
        for owner, attr, _, _ in layers._targets()
    ]
    with layers.Tracer(overhead_ns=0):
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
            assert owner.__dict__[attr].__wrapped__ is original
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_tracer_counts_calls_and_self_time():
    from repro.experiments.pipeline import ExperimentPipeline

    before = layers.local_counters()
    with layers.Tracer():
        ExperimentPipeline(workload.settings()).config_result("BT", "S", 4, [2])
    reading = layers.Reading(layers.delta(before, layers.local_counters()), 1)
    assert reading.calls("engine.run") == reading.counter("sim_runs") > 0
    assert reading.calls("comm.isend") == reading.calls("comm.irecv") > 0
    assert reading.calls("network.send_timing") == reading.calls("comm.isend")
    metrics = layers.simulator_metrics(reading)
    assert metrics["engine.residual_s"] > 0
    assert 0 < metrics["memory.hit_ratio"] < 1
    assert reading.calls("cell.BT.S.4") == 1


@pytest.mark.parametrize("section", ["sim-cells", "campaign", "serve"])
def test_perturbed_reference_value_is_rejected(section):
    reference = json.loads(workload.REFERENCE.read_text(encoding="utf-8"))
    key, pinned = sorted(reference[section].items())[0]
    values = {name: float.fromhex(text) for name, text in pinned.items()}
    assert workload.matches(values, pinned)
    name = sorted(pinned)[0]
    bumped = float.fromhex(pinned[name])
    perturbed = dict(pinned, **{name: (bumped + abs(bumped) * 1e-15).hex()})
    assert perturbed[name] != pinned[name]
    assert not workload.matches(values, perturbed)


def test_run_fails_when_one_pinned_value_is_perturbed(tmp_path):
    reference = json.loads(workload.REFERENCE.read_text(encoding="utf-8"))
    actual = float.fromhex(reference["sim-cells"]["BT.A.16"]["actual"])
    reference["sim-cells"]["BT.A.16"]["actual"] = (actual * (1 + 2**-50)).hex()
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", "sim-cells",
         "--seed", "3", "--seconds", "0", "--workdir", str(tmp_path / "w"),
         "--reference", str(path)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == 3


def test_runs_leave_checkout_clean_and_match_benchmark_json():
    status = git_status(ROOT)
    before = tree_state(ROOT)
    end_to_end = result_of(run_bench(
        "--workload", "campaign-warm", "--seed", "1", "--seconds", "0.5",
        "--trace", "0",
    ))
    per_layer = result_of(run_bench(
        "--workload", "serve-mix", "--seed", "1", "--seconds", "1",
        "--trace", "1",
    ))
    assert tree_state(ROOT) == before
    assert git_status(ROOT) == status
    assert not list(ROOT.glob(".perfbench-*"))
    for result in (end_to_end, per_layer):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    if BENCHMARK.exists():
        for result, kind in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == declared(kind)
    assert per_layer["metrics"]["service.simulations"]["value"] == 0
    assert per_layer["metrics"]["engine.events"]["value"] == 0
    assert per_layer["metrics"]["service.l2_hits"]["value"] >= 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if BENCHMARK.exists():
        shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "sim-cells", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not list(tmp_path.glob(".perfbench-*"))


def test_harness_avoids_internals_planned_for_removal():
    forbidden = ("ServiceClient", "LineClient", "serve_socket", "WorkerPool",
                 "_cengine")
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text(encoding="utf-8")
        for name in forbidden:
            assert name not in text, f"{path.name} uses {name}"

"""Microbenchmarks of the simulation substrate itself.

These are true pytest-benchmark timing runs (multiple rounds) of the
engine's hot paths; they guard the event-throughput budget the experiment
harness depends on.
"""

import importlib.util
import json
import time
from pathlib import Path

from benchmarks._ledger import record_bench
from repro.npb import make_benchmark
from repro.simmachine import Machine, Simulator, ibm_sp_argonne
from repro.simmpi import attach_world

REPO_ROOT = Path(__file__).resolve().parent.parent


def _baseline_simulator_cls():
    """Load the vendored pre-optimization engine's Simulator."""
    path = Path(__file__).with_name("_engine_baseline.py")
    spec = importlib.util.spec_from_file_location(
        "repro_bench_engine_baseline", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Simulator


def _timeout_heavy_events(simulator_cls=Simulator, n_procs=20,
                          n_timeouts=5000):
    """Compute-kernel-shaped load: processes that only yield timeouts."""
    sim = simulator_cls()

    def proc(i):
        for j in range(n_timeouts):
            yield sim.timeout(0.001 * ((i + j) % 7 + 1))

    for i in range(n_procs):
        sim.process(proc(i), name=f"p{i}")
    sim.run()
    return sim.events_processed


def _message_like_events(simulator_cls=Simulator, n_pairs=50, rounds=400):
    """Message-matching-shaped load: triggered events plus zero timeouts."""
    sim = simulator_cls()

    def proc(i):
        for j in range(rounds):
            event = sim.event()
            event.trigger_at(j, 1e-5)
            yield event
            yield sim.timeout(1e-6)

    for i in range(n_pairs):
        sim.process(proc(i), name=f"p{i}")
    sim.run()
    return sim.events_processed


def _ring_program(ctx):
    right = (ctx.rank + 1) % ctx.comm.size
    left = (ctx.rank - 1) % ctx.comm.size
    for _ in range(200):
        yield from ctx.comm.sendrecv(right, 40, send_tag=1, source=left)


def test_engine_message_throughput(benchmark):
    def run():
        machine = Machine(ibm_sp_argonne(), 8, seed=0)
        attach_world(machine)
        machine.run(_ring_program)
        return machine.sim.events_processed

    events = benchmark(run)
    # 200 ring exchanges on 8 ranks: ~3 events per message end.
    assert events > 4000


def test_engine_timeout_throughput(benchmark):
    events = benchmark(_timeout_heavy_events)
    # 20 processes x 5000 timeouts each, plus per-process bookkeeping.
    assert events >= 100_000


def test_engine_bench_artifact():
    """Record the engine's ops/sec against the baseline in ``BENCH_engine.json``.

    Interleaved best-of-five A/B between the vendored pre-optimization
    engine (``_engine_baseline.py``) and the current engine: each round
    times the same load on both sides back to back, so host-speed drift
    and CPU throttling hit both sides equally and the recorded speedups
    are trustworthy even on noisy CI runners.
    """
    sides = [("baseline", _baseline_simulator_cls()), ("current", Simulator)]
    loads = {
        "timeout_heavy": _timeout_heavy_events,
        "message_like": _message_like_events,
    }
    best = {
        name: {side: 0.0 for side, _ in sides} for name in loads
    }
    for _ in range(5):
        for name, load in loads.items():
            for side, cls in sides:
                start = time.perf_counter()
                events = load(cls)
                rate = events / (time.perf_counter() - start)
                best[name][side] = max(best[name][side], rate)

    record = {
        "baseline_events_per_sec": {
            name: round(best[name]["baseline"], 0) for name in loads
        },
        "current_events_per_sec": {
            name: round(best[name]["current"], 0) for name in loads
        },
        "speedup": {
            name: round(best[name]["current"] / best[name]["baseline"], 3)
            for name in loads
        },
    }
    (REPO_ROOT / "BENCH_engine.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    record_bench("engine", record, samples=5)
    # Both loads must stay comfortably ahead of the old engine; the
    # timeout-heavy path is the one the pure-Python optimization targeted.
    assert record["speedup"]["timeout_heavy"] >= 1.15, record
    assert record["speedup"]["message_like"] >= 1.15, record


def test_collective_allreduce_cost(benchmark):
    def run():
        machine = Machine(ibm_sp_argonne(), 16, seed=0)
        attach_world(machine)

        def program(ctx):
            for _ in range(50):
                yield from ctx.comm.allreduce(1.0, 8)

        return machine.run(program)

    elapsed = benchmark(run)
    assert elapsed > 0


def test_bt_iteration_simulation_speed(benchmark):
    bench = make_benchmark("BT", "W", 9)

    def run():
        machine = Machine(ibm_sp_argonne(), 9, seed=0)
        attach_world(machine)

        def program(ctx):
            for _ in range(3):
                for kernel in bench.loop_kernel_names:
                    yield from bench.kernel(kernel)(ctx)

        return machine.run(program)

    assert benchmark(run) > 0


def test_lu_wavefront_simulation_speed(benchmark):
    bench = make_benchmark("LU", "W", 8)

    def run():
        machine = Machine(ibm_sp_argonne(), 8, seed=0)
        attach_world(machine)

        def program(ctx):
            yield from bench.kernel("SSOR_LT")(ctx)
            yield from bench.kernel("SSOR_UT")(ctx)

        return machine.run(program)

    assert benchmark(run) > 0

"""Deterministic chaos harness for the prediction serving stack.

Drives the *real* service — L1 cache, single-flight, worker pool,
persistent memo store, wire protocol — from many client threads while a
seeded :class:`~repro.faults.FaultPlan` fires faults at every layer. The
cell *simulation* is replaced by :func:`synthetic_execute`, which mirrors
``run_cell``'s fault checkpoints and memo-store round-trip but builds
its measurements arithmetically, so a soak of thousands of requests runs
in seconds while still exercising every robustness path. Cells run
inline, so every fault site is checked against the one injector this
process installs and the fire counts reconcile exactly.

The harness's contract (asserted by ``tests/chaos/test_chaos.py``):

* **no deadlock** — every client thread finishes;
* **typed outcomes** — every request yields a well-formed JSON response
  (``ok: true`` with predictions, or ``ok: false`` with ``error_type``)
  or an accounted client disconnect;
* **no silent corruption** — injected memo-store corruption is detected
  and purged, never served (the tamper marker can never reach a client);
* **metrics reconcile** — obs counters match the injector's per-site fire
  counts, and those fire counts match the pure
  :meth:`~repro.faults.FaultPlan.schedule` replay (determinism).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
import random
from dataclasses import dataclass, field

from repro import faults, obs
from repro.core.kernel import ControlFlow
from repro.core.predictor import PredictionInputs
from repro.errors import (
    ClientDisconnectError,
    MeasurementError,
    WorkerCrashError,
)
from repro.npb import make_benchmark
from repro.parallel.memo import TAMPER, SimulationMemoStore
from repro.parallel.worker import CellResult
from repro.instrument import MeasurementConfig
from repro.service import PredictionService, handle_line, serve_socket

#: Sentinel planted by the ``db.*.corrupt`` tamper; if it ever shows up in
#: a served value, corrupted data escaped detection.
TAMPER_MARKER = TAMPER


def _stable_time(*parts) -> float:
    """A deterministic pseudo-measurement in (0, 1] ms-scale seconds."""
    import zlib

    digest = zlib.crc32("|".join(str(p) for p in parts).encode("utf-8"))
    return 1e-4 + (digest % 9999) * 1e-6


def synthetic_execute(spec) -> CellResult:
    """A fast, deterministic stand-in for ``run_cell``.

    Honours the same fault checkpoints (``worker.cell.stall``,
    ``worker.cell.crash``) and performs a real memo-store round-trip
    (``put`` + ``get`` in the spec's ``cache_dir``) so the
    ``db.*.corrupt`` sites are exercised — the served ``actual`` comes
    *from the store*, making undetected corruption observable at the
    client. A corrupt read-back is purged and the write retried; three
    corrupt read-backs in a row raise a typed ``MeasurementError``.
    """
    stall = faults.check("worker.cell.stall")
    if stall is not None:
        time.sleep(stall.param)
    if faults.check("worker.cell.crash") is not None:
        raise WorkerCrashError("injected worker crash (worker.cell.crash)")

    benchmark, problem_class, nprocs = (
        spec.benchmark, spec.problem_class, spec.nprocs
    )
    bench = make_benchmark(benchmark, problem_class, nprocs)
    flow = ControlFlow(bench.loop_kernel_names)
    loop_times = {
        k: _stable_time(benchmark, problem_class, nprocs, k)
        for k in flow.names
    }
    chain_times = {}
    for length in spec.chain_lengths:
        for window in flow.windows(length):
            base = sum(loop_times[k] for k in window)
            wiggle = 0.9 + 0.2 * (_stable_time(*window) * 1e3 % 1.0)
            chain_times[window] = base * wiggle
    inputs = PredictionInputs(
        flow=flow,
        iterations=bench.iterations,
        loop_times=loop_times,
        chain_times=chain_times,
    )
    actual = sum(loop_times.values()) * bench.iterations

    if spec.cache_dir is not None:
        # Round-trip the actual through the memo store so db.write.corrupt
        # / db.read.corrupt stand between us and the served value.
        store = SimulationMemoStore(spec.cache_dir)
        key = {
            "kind": "chaos-actual",
            "benchmark": benchmark,
            "problem_class": problem_class,
            "nprocs": nprocs,
        }
        for _attempt in range(3):
            store.put(key, {"actual": actual})
            stored = store.get(key)
            if stored is not None:
                actual = stored["actual"]
                break
        else:
            raise MeasurementError(
                f"chaos actual for {benchmark}.{problem_class}.{nprocs} "
                "failed integrity verification after retry"
            )

    return CellResult(
        benchmark=benchmark,
        problem_class=problem_class,
        nprocs=nprocs,
        chain_lengths=tuple(spec.chain_lengths),
        actual=actual,
        inputs=inputs.to_dict(),
        memo_stats={"stores": 1},
        counters=(),
        duration=0.0,
    )


@contextlib.contextmanager
def serving(**kwargs):
    """A service behind ``serve_socket`` on an ephemeral port.

    Cells run inline, like :func:`run_chaos`'s, unless
    ``executor="process"`` is passed; then the cell function runs on a
    worker process after the cell's real measurements.
    """
    defaults = dict(
        measurement=MeasurementConfig(repetitions=2, warmup=1),
        execute=synthetic_execute,
        executor="inline",
    )
    defaults.update(kwargs)
    with PredictionService(**defaults) as service:
        ready = threading.Event()
        bound: list = []
        control: list = []
        thread = threading.Thread(
            target=serve_socket,
            args=(service,),
            kwargs={"ready": ready, "bound": bound, "control": control},
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30)
        try:
            yield service, tuple(bound[0])
        finally:
            control[0].shutdown()
            thread.join(timeout=30)


@dataclass
class ChaosResult:
    """Everything one harness run observed, ready for reconciliation."""

    requests: int = 0
    ok: int = 0
    degraded_ok: int = 0
    disconnects: int = 0
    errors_by_type: dict = field(default_factory=dict)
    malformed: list = field(default_factory=list)
    served_actuals: list = field(default_factory=list)
    fires: dict = field(default_factory=dict)
    hits: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def total_errors(self) -> int:
        return sum(self.errors_by_type.values())

    @property
    def accounted(self) -> int:
        return self.ok + self.disconnects + self.total_errors


def _classify(result: ChaosResult, response: str, lock: threading.Lock) -> None:
    """Validate one wire response and fold it into the result."""
    try:
        payload = json.loads(response)
    except json.JSONDecodeError:
        with lock:
            result.malformed.append(response)
        return
    with lock:
        if not isinstance(payload, dict) or "ok" not in payload:
            result.malformed.append(response)
        elif payload["ok"]:
            if "predictions" not in payload or "actual" not in payload:
                result.malformed.append(response)
                return
            result.ok += 1
            if payload.get("degraded"):
                result.degraded_ok += 1
            result.served_actuals.append(payload["actual"])
        else:
            if "error" not in payload or "error_type" not in payload:
                result.malformed.append(response)
                return
            kind = payload["error_type"]
            result.errors_by_type[kind] = result.errors_by_type.get(kind, 0) + 1


def request_stream(seed: int, n_requests: int, nprocs_choices=(1, 4, 9, 16)):
    """The deterministic request sequence one harness run serves."""
    rng = random.Random(seed)
    lines = []
    for i in range(n_requests):
        lines.append(
            json.dumps(
                {
                    "id": f"chaos-{i}",
                    "benchmark": "BT",
                    "problem_class": "S",
                    "nprocs": rng.choice(nprocs_choices),
                    "chain_length": rng.choice((2, 3)),
                    "seed": rng.choice((0, 1)),
                }
            )
        )
    return lines


def run_chaos(
    plan: faults.FaultPlan,
    n_requests: int,
    n_threads: int = 8,
    request_seed: int = 1234,
    join_timeout: float = 90.0,
    **service_kwargs,
) -> ChaosResult:
    """One full chaos run: seeded faults, threaded clients, reconciliation.

    Returns a :class:`ChaosResult`; raises AssertionError only for a
    deadlocked client thread (everything else is data for the caller).
    """
    defaults = dict(
        executor="inline",
        queue_depth=32,
        default_timeout=2.0,
        crash_threshold=3,
        degraded_probe_every=4,
        execute=synthetic_execute,
    )
    defaults.update(service_kwargs)
    lines = request_stream(request_seed, n_requests)
    result = ChaosResult(requests=n_requests)
    lock = threading.Lock()
    cursor = {"next": 0}

    service = PredictionService(**defaults)
    injector = faults.install(plan)
    try:
        def client():
            while True:
                with lock:
                    i = cursor["next"]
                    if i >= len(lines):
                        return
                    cursor["next"] = i + 1
                try:
                    response = handle_line(service, lines[i])
                except ClientDisconnectError:
                    with lock:
                        result.disconnects += 1
                    continue
                if response is None:
                    with lock:
                        result.malformed.append("<no response>")
                    continue
                _classify(result, response, lock)

        threads = [
            threading.Thread(target=client, name=f"chaos-client-{t}")
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + join_timeout
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        stuck = [t.name for t in threads if t.is_alive()]
        assert not stuck, f"deadlocked client threads: {stuck}"
        result.stats = service.stats()
    finally:
        # Drain everything (including stalled cells whose waiters timed
        # out) *before* snapshotting fire counts, so the accounting is
        # complete, then deactivate the plan.
        service.close()
        result.fires = injector.fires()
        result.hits = injector.hits()
        faults.clear()

    registry = obs.get_registry()
    result.counters = {
        "request_timeout": registry.counter("request_timeout").value,
        "retry_attempts": registry.counter("retry_attempts").value,
        "worker_respawns": registry.counter("worker_respawns").value,
        "cache_corruption_detected": registry.counter(
            "cache_corruption_detected"
        ).value,
        "fault_injected": {
            site: registry.counter("fault_injected", site=site).value
            for site in plan.sites
        },
    }
    return result


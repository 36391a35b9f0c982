"""Outside-in layer tracing and the per-layer metric table.

The benchmark never edits the program to trace it. A :class:`Tracer`
replaces public layer functions (``Comm.isend``, ``NetworkModel.send_timing``,
``MemoryHierarchy.touch`` ...) with timing wrappers while it is installed and
puts the originals back on exit; untraced runs install nothing.

Each wrapped function belongs to a *kind*. Within a kind, a call's self time
is its duration minus the durations of the wrapped calls it made of the same
kind (and the wrappers' own measured cost), so the self times of one kind
partition the outermost call: ``Machine.run`` self time is the engine
residual (event dispatch plus generator glue) once comm, network, memory,
noise and process calls are taken out.

Totals are flushed into ``repro.obs`` counters (``perfbench_calls`` and
``perfbench_ns``, labelled ``fn=<name>``) whenever a thread leaves the
outermost wrapped call of a kind. That is what carries them across process
boundaries: campaign pool workers ship counter deltas home with every cell,
and a traced server answers the ``counters`` wire command.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

CALLS = "perfbench_calls"
NANOS = "perfbench_ns"


def _targets() -> list[tuple[Any, str, str, Any]]:
    """``(owner, attribute, kind, name)`` for every traced layer entry point.

    ``name`` is a string or a function of the call's arguments.
    """
    from repro.experiments.pipeline import ExperimentPipeline
    from repro.instrument.runner import ApplicationRunner, ChainRunner
    from repro.parallel.memo import SimulationMemoStore
    from repro.service.engine import PredictionService
    from repro.simmachine.memory import MemoryHierarchy
    from repro.simmachine.network import NetworkModel
    from repro.simmachine.noise import RankNoise
    from repro.simmachine.process import Machine, RankContext
    from repro.simmpi.comm import Comm

    def chain_name(runner, kernels, *args, **kwargs):
        return "runner.isolated" if len(kernels) <= 1 else "runner.chains"

    def cell_name(pipeline, benchmark, problem_class, nprocs, *a, **kw):
        return f"cell.{benchmark}.{problem_class}.{nprocs}"

    def request_name(service, request, *args, **kwargs):
        # The serve-mix stream sends hot (L1) requests with seed 0 and
        # store-path requests with fresh seeds.
        return "service.l1" if request.seed == 0 else "service.store"

    return [
        (Machine, "run", "sim", "engine.run"),
        (Comm, "isend", "sim", "comm.isend"),
        (Comm, "irecv", "sim", "comm.irecv"),
        (NetworkModel, "send_timing", "sim", "network.send_timing"),
        (MemoryHierarchy, "touch", "sim", "memory.touch"),
        (RankNoise, "factor", "sim", "noise.factor"),
        (RankNoise, "floor_jitter", "sim", "noise.floor_jitter"),
        (RankContext, "work", "sim", "process.work"),
        (RankContext, "compute_seconds", "sim", "process.compute_seconds"),
        (RankContext, "touch_regions", "sim", "process.touch_regions"),
        (ChainRunner, "measure_overhead", "phase", "runner.overhead"),
        (ChainRunner, "measure", "phase", chain_name),
        (ApplicationRunner, "run", "phase", "runner.app"),
        (ExperimentPipeline, "config_result", "cell", cell_name),
        (ExperimentPipeline, "sweep", "sweep", "executor.sweep"),
        (SimulationMemoStore, "get", "store", "memo.get"),
        (SimulationMemoStore, "put", "store", "memo.put"),
        (PredictionService, "predict", "service", request_name),
    ]


class _ThreadState:
    __slots__ = ("stacks", "pending")

    def __init__(self) -> None:
        self.stacks: dict[str, list[int]] = {}
        self.pending: dict[str, list[int]] = {}


class Tracer:
    """Installs timing wrappers on the layer entry points; a context manager."""

    def __init__(self, overhead_ns: Optional[int] = None) -> None:
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []
        #: Calibrated per-call wrapper cost; measured on first install.
        self.overhead_ns = overhead_ns

    # -- install / restore -------------------------------------------------

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = _targets()
        if self.overhead_ns is None:
            self.overhead_ns = self._calibrate()
        for owner, attr, kind, name in targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, kind, name))
        return self

    def uninstall(self) -> None:
        self._flush(self._state())
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- the wrapper -------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
        return state

    def _wrap(
        self, fn: Callable[..., Any], kind: str, name: Any, flush: bool = True
    ) -> Callable[..., Any]:
        clock = time.perf_counter_ns
        state_of = self._state
        flush_state = self._flush
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(*args, **kwargs)
            state = state_of()
            stack = state.stacks.get(kind)
            if stack is None:
                stack = state.stacks[kind] = []
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed + tracer.overhead_ns
                slot = state.pending.get(label)
                if slot is None:
                    slot = state.pending[label] = [0, 0]
                slot[0] += 1
                slot[1] += elapsed - children
                if flush and not stack:
                    flush_state(state)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _calibrate(self, calls: int = 20000) -> int:
        """Per-call cost of a wrapper as seen by its caller, in ns.

        Added to the parent's child time so that a layer's self time does
        not absorb the cost of tracing the layers below it.
        """

        def noop() -> None:
            return None

        probe = Tracer(overhead_ns=0)
        wrapped = probe._wrap(noop, "calibrate", "calibrate", flush=False)
        best = None
        for _ in range(5):
            start = time.perf_counter_ns()
            for _ in range(calls):
                pass
            bare = time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter_ns() - start
            inner = probe._state().pending["calibrate"][1]
            probe._state().pending.clear()
            # What the caller pays beyond the callee's own measured time.
            cost = (traced - bare - inner) // calls
            best = cost if best is None else min(best, cost)
        return max(0, best or 0)

    @staticmethod
    def _flush(state: _ThreadState) -> None:
        if not state.pending:
            return
        from repro import obs

        registry = obs.get_registry()
        for label, (calls, nanos) in state.pending.items():
            registry.counter(CALLS, fn=label).inc(calls)
            registry.counter(NANOS, fn=label).inc(max(0, nanos))
        state.pending.clear()


# -- reading counters back ---------------------------------------------------


def local_counters() -> dict[tuple[str, tuple], int]:
    """This process's counters, keyed like the ``counters`` wire command."""
    from repro import obs

    return dict(obs.counter_snapshot())


def wire_counters(reply: dict) -> dict[tuple[str, tuple], int]:
    """Decode a ``{"cmd": "counters"}`` reply into the same key shape."""
    return {
        (name, tuple(tuple(item) for item in labels)): value
        for name, labels, value in reply["counters"]
    }


def delta(
    before: dict[tuple[str, tuple], int], after: dict[tuple[str, tuple], int]
) -> dict[tuple[str, tuple], int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


class Reading:
    """Per-layer figures from one counter delta (over ``ops`` operations)."""

    def __init__(self, counts: dict[tuple[str, tuple], int], ops: int) -> None:
        self.counts = counts
        self.ops = max(1, ops)

    def counter(self, name: str) -> int:
        return self.counts.get((name, ()), 0)

    def calls(self, fn: str) -> int:
        return self.counts.get((CALLS, (("fn", fn),)), 0)

    def nanos(self, fn: str) -> int:
        return self.counts.get((NANOS, (("fn", fn),)), 0)

    def per_op(self, value: float) -> float:
        return value / self.ops

    def ns_per_call(self, fn: str) -> float:
        calls = self.calls(fn)
        return self.nanos(fn) / calls if calls else 0.0

    def seconds(self, *fns: str) -> float:
        return sum(self.nanos(fn) for fn in fns) / 1e9 / self.ops


def simulator_metrics(reading: Reading) -> dict[str, float]:
    """Engine, comm, network, memory, noise, process and runner figures.

    Counts and seconds are per operation; ``.ns`` figures are mean self
    nanoseconds per call (a layer's total is ``calls * ns``).
    """
    r = reading
    events = r.per_op(r.counter("sim_events"))
    hit = r.per_op(r.counter("sim_cache_bytes_hit"))
    missed = r.per_op(r.counter("sim_cache_bytes_missed"))
    residual = r.seconds("engine.run")
    process = ("process.work", "process.compute_seconds", "process.touch_regions")
    out = {
        "engine.events": events,
        "engine.runs": r.per_op(r.counter("sim_runs")),
        "engine.residual_s": residual,
        "engine.residual_ns_per_event": residual * 1e9 / events if events else 0.0,
        "comm.isend.calls": r.per_op(r.calls("comm.isend")),
        "comm.isend.ns": r.ns_per_call("comm.isend"),
        "comm.irecv.calls": r.per_op(r.calls("comm.irecv")),
        "comm.irecv.ns": r.ns_per_call("comm.irecv"),
        "comm.self_s": r.seconds("comm.isend", "comm.irecv"),
        "network.send_timing.calls": r.per_op(r.calls("network.send_timing")),
        "network.send_timing.ns": r.ns_per_call("network.send_timing"),
        "network.messages": r.per_op(r.counter("sim_messages")),
        "network.bytes": r.per_op(r.counter("sim_message_bytes")),
        "network.self_s": r.seconds("network.send_timing"),
        "memory.touch.calls": r.per_op(r.calls("memory.touch")),
        "memory.touch.ns": r.ns_per_call("memory.touch"),
        "memory.bytes_hit": hit,
        "memory.bytes_missed": missed,
        "memory.hit_ratio": hit / (hit + missed) if hit + missed else 0.0,
        "memory.self_s": r.seconds("memory.touch"),
        "noise.draws": r.per_op(r.counter("sim_noise_draws")),
        "noise.factor.ns": r.ns_per_call("noise.factor"),
        "noise.floor_jitter.ns": r.ns_per_call("noise.floor_jitter"),
        "noise.self_s": r.seconds("noise.factor", "noise.floor_jitter"),
        "process.work.calls": r.per_op(r.calls("process.work")),
        "process.work.self_ns": r.ns_per_call("process.work"),
        "process.compute_seconds.calls": r.per_op(
            r.calls("process.compute_seconds")
        ),
        "process.touch_regions.calls": r.per_op(r.calls("process.touch_regions")),
        "process.self_s": r.seconds(*process),
        "runner.overhead_s": r.seconds("runner.overhead"),
        "runner.isolated_s": r.seconds("runner.isolated"),
        "runner.chains_s": r.seconds("runner.chains"),
        "runner.app_s": r.seconds("runner.app"),
    }
    return out


def store_metrics(reading: Reading) -> dict[str, float]:
    """Executor and memo-store figures (per operation)."""
    r = reading
    return {
        "executor.sweep_s": r.seconds("executor.sweep"),
        "memo.get.ns": r.ns_per_call("memo.get"),
        "memo.put.ns": r.ns_per_call("memo.put"),
        "memo.hits": r.per_op(r.counter("parallel_memo_hits")),
        "memo.misses": r.per_op(r.counter("parallel_memo_misses")),
    }


#: Exact work counts: identical on every run of the same code.
EXACT = (
    "engine.events",
    "engine.runs",
    "network.messages",
    "network.bytes",
    "memory.bytes_hit",
    "memory.bytes_missed",
    "noise.draws",
    "comm.isend.calls",
    "comm.irecv.calls",
    "network.send_timing.calls",
    "memory.touch.calls",
    "process.work.calls",
)

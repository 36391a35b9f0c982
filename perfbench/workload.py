"""One benchmark workload, run in its own process by ``run.py``.

Protocol on standard output, one line each:

* ``perfbench:env {...}`` — host and environment of this result;
* ``perfbench:ready {...}`` — set-up is done; ``run.py`` times process
  start to this line as one ``setup_s`` sample, less the host-speed probes
  the line reports. With ``--setup-only`` the process tears down and exits
  here;
* ``perfbench:detail {...}`` — operation counts, units and raw timings;
* the result object, last.

``--pin`` instead recomputes ``reference.json`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import speed  # noqa: E402
from wire import Connection, Server, command, memo_footprint  # noqa: E402

REFERENCE = HERE / "reference.json"

#: Measurement protocol of every workload (the one ``repro serve`` uses).
PROTOCOL = {"repetitions": 6, "warmup": 2, "seed": 0}

GOLDEN_CELLS = (("BT", "A", 16), ("SP", "A", 16), ("LU", "A", 8))
CAMPAIGN = (("BT", "W", (4, 9, 16)), ("SP", "W", (4, 9, 16)), ("LU", "W", (2, 4, 8)))
CAMPAIGN_CHAINS = (2, 3)
HOT_CELLS = tuple((b, c, 4) for c in ("S", "W") for b in ("BT", "SP", "LU"))
HOT_CHAINS = (2, 3)
STORE_SHARE = 0.1


def cell_id(benchmark: str, problem_class: str, nprocs: int) -> str:
    return f"{benchmark}.{problem_class}.{nprocs}"


def settings():
    from repro.experiments.pipeline import ExperimentSettings
    from repro.instrument.runner import MeasurementConfig

    return ExperimentSettings(measurement=MeasurementConfig(**PROTOCOL))


def config_values(result, chains) -> dict[str, float]:
    """The checked outputs of one ``ConfigResult``."""
    values = {"actual": result.actual, "summation": result.summation}
    for length in chains:
        values[f"coupling{length}"] = result.coupling_prediction(length)
    return values


def answer_values(reply: dict) -> dict[str, float]:
    """The checked outputs of one wire answer."""
    predictions = reply["predictions"]
    coupling = [v for k, v in predictions.items() if k.startswith("Coupling")]
    return {
        "actual": reply["actual"],
        "summation": predictions["Summation"],
        "coupling": coupling[0],
    }


def matches(values: dict[str, float], pinned: Optional[dict[str, str]]) -> bool:
    """Bit-for-bit comparison against pinned ``float.hex`` strings."""
    if pinned is None or set(values) != set(pinned):
        return False
    return all(float(v).hex() == pinned[k] for k, v in values.items())


def coupling_error_pct(values: list[tuple[float, float]]) -> float:
    """Mean |prediction - actual| / actual over ``(prediction, actual)``."""
    return 100.0 * statistics.fmean(abs(p - a) / a for p, a in values)


def environment() -> dict[str, Any]:
    import repro.simmachine as simmachine

    info = getattr(simmachine, "backend_info", None)
    if info is None:
        try:
            from repro.simmachine._backend import backend_info as info
        except ImportError:
            info = None
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "backend": info() if info is not None else "unknown",
        "repro_engine_env": os.environ.get("REPRO_ENGINE"),
    }


# -- timing --------------------------------------------------------------------


class Stopwatch:
    """Times one operation in segments.

    Between segments (:meth:`pause`) the normaliser may probe the host
    speed, outside every timed segment.
    """

    def __init__(self, normaliser: Optional[speed.Normaliser]) -> None:
        self.segments: list[float] = []
        self._normaliser = normaliser

    def run(self, fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.segments.append(elapsed)
        if self._normaliser is not None:
            self._normaliser.segment(elapsed)
        return result

    def pause(self) -> None:
        if self._normaliser is not None:
            self._normaliser.boundary()


class LocalTracing:
    """Per-operation counter deltas of traced operations in this process."""

    def __init__(self) -> None:
        self.readings: list[dict] = []
        self.overhead_ns: Optional[int] = None

    @contextmanager
    def active(self, traced: bool) -> Iterator[None]:
        """Install the tracer around one operation when ``traced``."""
        if not traced:
            yield
            return
        before = layers.local_counters()
        with layers.Tracer(self.overhead_ns) as tracer:
            yield
        self.overhead_ns = tracer.overhead_ns
        self.readings.append(layers.delta(before, layers.local_counters()))

    def metrics(self) -> tuple[dict[str, float], bool]:
        """Median of every figure over traced operations; exact counts agree?"""
        per_op = [
            {
                **layers.simulator_metrics(layers.Reading(counts, 1)),
                **layers.store_metrics(layers.Reading(counts, 1)),
                **cell_seconds(counts),
            }
            for counts in self.readings
        ]
        merged = {
            name: statistics.median(m[name] for m in per_op) for name in per_op[0]
        }
        exact = all(
            m[name] == per_op[0][name] for m in per_op for name in layers.EXACT
        )
        return merged, exact


def cell_seconds(counts: dict) -> dict[str, float]:
    reading = layers.Reading(counts, 1)
    return {
        f"cell.{cell_id(*cell)}_s": reading.seconds(f"cell.{cell_id(*cell)}")
        for cell in GOLDEN_CELLS
    }


def zero_serving() -> dict[str, float]:
    """Serving figures of a workload that never talks to a server."""
    names = (
        "service.l1_hits", "service.l2_hits", "service.misses",
        "service.simulations", "service.batches", "service.batch_size_mean",
        "service.hit_ratio", "service.l1_server_us", "service.store_server_ms",
        "wire.overhead_us", "wire.l1_p50_ms", "wire.store_p50_ms",
        "wire.req_p99_ms",
    )
    return dict.fromkeys(names, 0)


def median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def percentile_ms(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return 0.0
    return statistics.quantiles(samples, n=100)[pct - 1] * 1e3


# -- workloads ----------------------------------------------------------------


class Workload:
    """Set-up, one timed operation, tear-down, and the metrics of a run."""

    unit = "operation"
    #: Host seconds of operations between two host-speed probes.
    probe_every = 0.0

    def __init__(self, seed: int, workdir: Path, reference: dict) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: ``(prediction, actual)`` pairs behind ``coupling_err_pct``.
        self.accuracy: list[tuple[float, float]] = []
        #: Extra figures for the detail line.
        self.detail: dict[str, Any] = {}

    def setup(self, trace: bool) -> None:
        pass

    def op(self, traced: bool, watch: Stopwatch) -> None:
        """Run one operation, timing its segments with ``watch``."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks after the timed phase."""

    def close(self) -> None:
        pass

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(label)

    def layer_metrics(self) -> dict[str, float]:
        raise NotImplementedError


class SimCells(Workload):
    """Serial, memo-less, exact-tier simulation of the three golden cells."""

    unit = "pass over BT.A.16, SP.A.16 and LU.A.8 (chain length 2)"

    def setup(self, trace: bool) -> None:
        from repro.experiments.pipeline import ExperimentPipeline

        self.pipeline_cls = ExperimentPipeline
        self.settings = settings()
        self.tracing = LocalTracing()

    def op(self, traced: bool, watch: Stopwatch) -> None:
        order = list(GOLDEN_CELLS)
        self.rng.shuffle(order)
        results = {}
        with self.tracing.active(traced):
            for index, cell in enumerate(order):
                if index:
                    watch.pause()
                results[cell] = watch.run(
                    lambda: self.pipeline_cls(self.settings).config_result(
                        *cell, [2]
                    )
                )
        accuracy = []
        for cell in GOLDEN_CELLS:
            values = config_values(results[cell], (2,))
            pinned = self.reference["sim-cells"].get(cell_id(*cell))
            self.check(cell_id(*cell), matches(values, pinned))
            accuracy.append((values["coupling2"], values["actual"]))
        self.accuracy = accuracy

    def layer_metrics(self) -> dict[str, float]:
        merged, exact = self.tracing.metrics()
        self.check("exact layer counts repeat", exact)
        memo = {"memo.entries": 0, "memo.bytes": 0}
        return {**merged, **memo, **zero_serving()}


class CampaignWarm(Workload):
    """``ExperimentPipeline(memo=..., jobs=2)`` sweeps over nine W cells.

    Set-up runs the cold sweep into a fresh memo directory (the process
    pool simulates every cell and writes the store); each timed operation
    is a warm sweep by a new pipeline on that directory.
    """

    unit = "warm sweep answered from the memo directory"

    def setup(self, trace: bool) -> None:
        from repro.experiments.pipeline import ExperimentPipeline

        self.pipeline_cls = ExperimentPipeline
        self.settings = settings()
        self.tracing = LocalTracing()
        self.memo_dir = Path(tempfile.mkdtemp(prefix="memo-", dir=self.workdir))
        watch = Stopwatch(None)
        self.cold = self.sweep(watch)
        self.detail["cold_sweep_s"] = sum(watch.segments)
        self.check_sweep(self.cold)

    def sweep(self, watch: Stopwatch) -> dict[str, dict[str, float]]:
        order = list(CAMPAIGN)
        self.rng.shuffle(order)
        pipeline = watch.run(
            lambda: self.pipeline_cls(self.settings, memo=self.memo_dir, jobs=2)
        )
        results = {}
        for benchmark, problem_class, procs in order:
            watch.pause()
            for result in watch.run(
                lambda: pipeline.sweep(
                    benchmark, problem_class, procs, list(CAMPAIGN_CHAINS)
                )
            ):
                key = cell_id(benchmark, problem_class, result.nprocs)
                results[key] = config_values(result, CAMPAIGN_CHAINS)
        return results

    def check_sweep(self, results: dict) -> None:
        accuracy = []
        for benchmark, problem_class, procs in CAMPAIGN:
            for nprocs in procs:
                key = cell_id(benchmark, problem_class, nprocs)
                values = results.get(key)
                pinned = self.reference["campaign"].get(key)
                self.check(key, values is not None and matches(values, pinned))
                if values is not None:
                    accuracy += [
                        (values[f"coupling{n}"], values["actual"])
                        for n in CAMPAIGN_CHAINS
                    ]
        self.accuracy = accuracy

    def op(self, traced: bool, watch: Stopwatch) -> None:
        from repro import obs

        runs = ("sim_runs", ())
        before = obs.counter_snapshot().get(runs, 0)
        with self.tracing.active(traced):
            results = self.sweep(watch)
        self.check("warm sweep ran no simulation",
                   obs.counter_snapshot().get(runs, 0) == before)
        self.check("warm equals cold", results == self.cold)
        self.check_sweep(results)

    def layer_metrics(self) -> dict[str, float]:
        merged, exact = self.tracing.metrics()
        self.check("exact layer counts repeat", exact)
        entries, size = memo_footprint(self.memo_dir)
        memo = {"memo.entries": entries, "memo.bytes": size}
        return {**merged, **memo, **zero_serving()}


class ServeMix(Workload):
    """Closed-loop wire client against ``repro serve`` (90% L1, 10% store)."""

    unit = "request over one TCP connection"
    probe_every = 0.1

    def setup(self, trace: bool) -> None:
        self.hot = [(cell, n) for cell in HOT_CELLS for n in HOT_CHAINS]
        self.fresh_seed = 0
        self.answers: dict = {}
        self.servers = []
        self.plain = self._start(self.workdir / "plain", traced=False)
        self.traced_server = None
        if trace:
            self.traced_server = self._start(self.workdir / "traced", traced=True)
        self.latency: dict[tuple[bool, bool], list[float]] = {
            (t, s): [] for t in (False, True) for s in (False, True)
        }
        self.accuracy = [
            (values["coupling"], values["actual"])
            for values in self.answers.values()
        ]
        self.before = {id(s): self._snapshot(s) for s in self.servers}

    def _start(self, workdir: Path, traced: bool):
        server = Server(ROOT, workdir, traced=traced)
        self.servers.append(server)
        server.conn = Connection(server.port)
        for cell, length in self.hot:
            values = self._ask(server, cell, length, 0)
            if values is not None:
                self.answers[(cell, length)] = values
        return server

    def _ask(self, server, cell, length, seed) -> Optional[dict]:
        request = {
            "benchmark": cell[0],
            "problem_class": cell[1],
            "nprocs": cell[2],
            "chain_length": length,
        }
        if seed:
            request["seed"] = seed
        try:
            reply = server.conn.call(request)
            values = answer_values(reply) if reply.get("ok") else None
        except (ConnectionError, KeyError, IndexError, ValueError, OSError):
            values = None
        pinned = self.reference["serve"].get(f"{cell_id(*cell)}/{length}")
        ok = values is not None and matches(values, pinned)
        self.check(f"{cell_id(*cell)}/{length} seed={seed}", ok)
        return values if ok else None

    def _snapshot(self, server) -> dict:
        return {
            "stats": command(server.conn, "stats")["stats"],
            "counters": layers.wire_counters(command(server.conn, "counters")),
            "memo": memo_footprint(server.memo_dir),
        }

    def op(self, traced: bool, watch: Stopwatch) -> None:
        server = self.traced_server if traced else self.plain
        cell, length = self.rng.choice(self.hot)
        store = self.rng.random() < STORE_SHARE
        seed = 0
        if store:
            self.fresh_seed += 1
            seed = self.fresh_seed
        watch.run(lambda: self._ask(server, cell, length, seed))
        self.latency[(traced, store)].append(watch.segments[-1])

    def finish(self) -> None:
        """Timed phase over: no simulation may have run in it."""
        self.after = {}
        for server in self.servers:
            self.after[id(server)] = self._snapshot(server)
            sims = [
                snap["stats"]["simulations"]
                for snap in (self.before[id(server)], self.after[id(server)])
            ]
            self.check("timed phase ran no simulation", sims[0] == sims[1])
        plain = self.latency[(False, False)] + self.latency[(False, True)]
        self.detail["raw_req_p99_ms"] = percentile_ms(plain, 99)

    def layer_metrics(self) -> dict[str, float]:
        server = self.traced_server
        before, after = self.before[id(server)], self.after[id(server)]
        counts = layers.delta(before["counters"], after["counters"])
        requests = len(self.latency[(True, False)]) + len(self.latency[(True, True)])
        reading = layers.Reading(counts, requests)
        stats = {
            k: after["stats"][k] - before["stats"][k]
            for k in ("requests", "l1_hits", "l2_hits", "misses", "simulations",
                      "batches")
        }
        b0, b1 = before["stats"]["batch_size"], after["stats"]["batch_size"]
        batches = b1["count"] - b0["count"]
        l1_us = reading.ns_per_call("service.l1") / 1e3
        l1_client = self.latency[(True, False)]
        plain = self.latency[(False, False)] + self.latency[(False, True)]
        return {
            **layers.simulator_metrics(reading),
            **layers.store_metrics(reading),
            **cell_seconds(counts),
            "memo.hits": reading.counter("parallel_memo_hits"),
            "memo.misses": reading.counter("parallel_memo_misses"),
            "memo.entries": after["memo"][0] - before["memo"][0],
            "memo.bytes": after["memo"][1] - before["memo"][1],
            "service.l1_hits": stats["l1_hits"],
            "service.l2_hits": stats["l2_hits"],
            "service.misses": stats["misses"],
            "service.simulations": stats["simulations"],
            "service.batches": stats["batches"],
            "service.batch_size_mean": (
                (b1["count"] * b1["mean"] - b0["count"] * b0["mean"]) / batches
                if batches else 0.0
            ),
            "service.hit_ratio": (
                stats["l1_hits"] / stats["requests"] if stats["requests"] else 0.0
            ),
            "service.l1_server_us": l1_us,
            "service.store_server_ms": reading.ns_per_call("service.store") / 1e6,
            "wire.overhead_us": (
                statistics.median(l1_client) * 1e6 - l1_us if l1_client else 0.0
            ),
            "wire.l1_p50_ms": median_ms(self.latency[(False, False)]),
            "wire.store_p50_ms": median_ms(self.latency[(False, True)]),
            "wire.req_p99_ms": percentile_ms(plain, 99),
        }

    def close(self) -> None:
        for server in getattr(self, "servers", []):
            try:
                conn = getattr(server, "conn", None)
                if conn is not None:
                    conn.close()
            finally:
                server.stop()


WORKLOADS: dict[str, type] = {
    "sim-cells": SimCells,
    "campaign-warm": CampaignWarm,
    "serve-mix": ServeMix,
}


# -- the run ------------------------------------------------------------------


def timed_phase(workload: Workload, seconds: float, trace: bool):
    """Operations until ``seconds`` pass; traced runs alternate traced ops.

    Returns raw untraced and traced host seconds per operation, plus the
    untraced ones normalised to the reference host speed (untraced runs).
    """
    durations: dict[bool, list[float]] = {False: [], True: []}
    normaliser = None if trace else speed.Normaliser(workload.probe_every)
    minimum = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    count = 0
    while count < minimum or time.perf_counter() < deadline:
        traced = trace and count % 2 == 1
        watch = Stopwatch(normaliser)
        workload.op(traced, watch)
        durations[traced].append(sum(watch.segments))
        if normaliser is not None:
            normaliser.end_op()
        count += 1
    workload.finish()
    normalised = normaliser.close() if normaliser is not None else []
    return durations[False], durations[True], normalised


def result_object(workload: Workload, untraced, traced, normalised) -> dict:
    if traced:
        values = workload.layer_metrics()
        base = statistics.median(untraced)
        values["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) - base) / base
        )
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(values.items())
        }
    else:
        metrics = {
            "op_p50_ms": {"value": statistics.median(normalised) * 1e3, "unit": "ms"},
            "ops_per_s": {"value": len(normalised) / sum(normalised), "unit": "1/s"},
            "coupling_err_pct": {"value": coupling_error_pct(workload.accuracy),
                                 "unit": "%"},
        }
    return {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    """The unit of a per-layer figure, read off its name's suffix."""
    suffixes = (
        ("_per_event", "ns"), (".ns", "ns"), ("_ns", "ns"), ("_us", "us"),
        ("_ms", "ms"), ("_s", "s"), ("_pct", "%"), ("ratio", "ratio"),
        ("bytes", "bytes"), ("bytes_hit", "bytes"), ("bytes_missed", "bytes"),
        ("_mean", "requests"),
    )
    for suffix, unit in suffixes:
        if name.endswith(suffix):
            return unit
    return "count"


def emit(tag: str, payload: Any = None) -> None:
    line = f"perfbench:{tag}"
    if payload is not None:
        line += " " + json.dumps(payload, sort_keys=True)
    print(line, flush=True)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if args.pin:
        return pin(args.reference)
    if args.workload is None or args.workdir is None:
        parser.error("--workload and --workdir are required")
    # Probe the host speed before and after set-up; run.py takes the
    # probes' own time out of the set-up sample and normalises the rest.
    probe_start = time.perf_counter()
    probes = [speed.probe()]
    probe_s = time.perf_counter() - probe_start
    reference = json.loads(args.reference.read_text(encoding="utf-8"))
    trace = bool(args.trace)
    args.workdir.mkdir(parents=True, exist_ok=True)
    emit("env", environment())
    workload = WORKLOADS[args.workload](args.seed, args.workdir, reference)
    try:
        workload.setup(trace)
        probe_start = time.perf_counter()
        probes.append(speed.probe())
        probe_s += time.perf_counter() - probe_start
        emit("ready", {"probes": probes, "probe_s": probe_s})
        if args.setup_only:
            return 0
        untraced, traced, normalised = timed_phase(workload, args.seconds, trace)
        result = result_object(workload, untraced, traced, normalised)
    finally:
        workload.close()
    emit("detail", {
        "workload": args.workload,
        "unit": workload.unit,
        "operations": len(untraced) + len(traced),
        "traced_operations": len(traced),
        "raw_op_p50_ms": statistics.median(untraced) * 1e3,
        "raw_ops_per_s": len(untraced) / sum(untraced),
        "mismatches": workload.errors,
        **workload.detail,
    })
    print(json.dumps(result), flush=True)
    return 0


# -- pinning -------------------------------------------------------------------


def pin(path: Path) -> int:
    """Recompute every checked output from the current code into ``path``."""
    from repro.experiments.pipeline import ExperimentPipeline

    def hexed(values: dict[str, float]) -> dict[str, str]:
        return {k: float(v).hex() for k, v in values.items()}

    reference: dict[str, dict] = {"sim-cells": {}, "campaign": {}, "serve": {}}
    for cell in GOLDEN_CELLS:
        result = ExperimentPipeline(settings()).config_result(*cell, [2])
        reference["sim-cells"][cell_id(*cell)] = hexed(config_values(result, (2,)))
    pipeline = ExperimentPipeline(settings())
    for benchmark, problem_class, procs in CAMPAIGN:
        for result in pipeline.sweep(
            benchmark, problem_class, procs, list(CAMPAIGN_CHAINS)
        ):
            key = cell_id(benchmark, problem_class, result.nprocs)
            reference["campaign"][key] = hexed(config_values(result, CAMPAIGN_CHAINS))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-pin-", dir=ROOT))
    try:
        server = Server(ROOT, workdir)
        try:
            conn = Connection(server.port)
            for cell in HOT_CELLS:
                for length in HOT_CHAINS:
                    reply = conn.call({
                        "benchmark": cell[0], "problem_class": cell[1],
                        "nprocs": cell[2], "chain_length": length,
                    })
                    key = f"{cell_id(*cell)}/{length}"
                    reference["serve"][key] = hexed(answer_values(reply))
            conn.close()
        finally:
            server.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

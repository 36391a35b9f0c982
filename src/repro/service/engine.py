"""The prediction service: requests in, cached or simulated reports out.

:class:`PredictionService` turns the one-shot predictor stack
(:func:`repro.quick_prediction` and friends) into a long-lived serving
layer:

1. an L1 LRU answers repeated requests in microseconds: each entry
   (:class:`~repro.service.cache.L1Entry`) holds the report and, once
   the wire front-end has served it, its rendered reply line;
2. the store rung answers archived cells on the request thread from one
   archive record of the memo store
   (:class:`~repro.parallel.memo.SimulationMemoStore`, keyed by
   :func:`~repro.parallel.keys.archive_key`) — no worker, no write;
3. the rest must simulate: identical requests in flight share one
   future (single-flight), and the request that opened it dispatches its
   own cell from its own thread to the bounded worker pool
   (:mod:`repro.service.workers`), through the same memo store, then
   archives its answer. On worker processes a cell's measurements run
   as separate tasks of the one cold-work scheduler
   (:class:`~repro.parallel.executor.CellPool`), which simulates a
   measurement that several cells share once — so requests for one
   configuration at several chain lengths, concurrent or in one wire
   array line, share their overhead, kernels and application run;
4. every step is measured (:mod:`repro.service.metrics`).

**Seeds.** A request's seed selects its measurement-noise stream, but an
archived answer is seed-free: the first cell to finish a (machine,
protocol, cell, chain length) archives its answer with a create-if-absent
write, and every request for it — at any seed, that cell's own included
— is answered from that record.

The public surface is thread-safe: any number of threads may call
:meth:`PredictionService.predict` concurrently.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Optional, Sequence

from repro import faults, obs
from repro.analytic.tiers import (
    TIER_ANALYTIC,
    TIER_MEMO,
    TIER_SIMULATION,
    TierPolicy,
    resolve_tier_policy,
)
from repro.core.predictor import (
    CouplingPredictor,
    PredictionInputs,
    PredictionReport,
    SummationPredictor,
)
from repro.errors import (
    InjectedFaultError,
    PredictionError,
    ServiceClosedError,
    ServiceDegradedError,
    ServiceError,
    ServiceSaturatedError,
    ServiceTimeoutError,
)
from repro.instrument.runner import MeasurementConfig
from repro.npb import BENCHMARKS, CLASS_NAMES, make_benchmark
from repro.parallel.keys import MemoKey, archive_key, cell_key
from repro.parallel.memo import SimulationMemoStore
from repro.parallel.worker import CellResult, CellSpec, run_cell
from repro.service.cache import L1Entry, LRUCache
from repro.service.metrics import ServiceMetrics
from repro.service.workers import WorkerPool
from repro.simmachine.machine import MachineConfig, ibm_sp_argonne

__all__ = ["PredictRequest", "PredictionService"]


def _fail(future: Future, exc: BaseException) -> None:
    if not future.done():
        future.set_exception(exc)


def _exact_int(name: str, value: Any) -> int:
    """``value`` as an int when it is one exactly (``4``, ``4.0``, ``"4"``).

    Booleans and floats with a fraction are malformed rather than rounded
    to some other cell (``4.5`` is not 4 ranks).
    """
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ServiceError(
            f"malformed request: {name} must be an integer, got {value!r}"
        )
    return int(value)


@dataclass(frozen=True)
class PredictRequest:
    """One prediction to serve.

    ``seed`` selects the measurement-noise stream of a cell that
    simulates (distinct seeds are distinct L1 cache entries); an archived
    answer serves every seed (see the module docstring).
    """

    benchmark: str
    problem_class: str
    nprocs: int
    chain_length: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmark", str(self.benchmark).upper())
        object.__setattr__(
            self, "problem_class", str(self.problem_class).upper()
        )
        if self.benchmark not in BENCHMARKS:
            raise ServiceError(
                f"unknown benchmark {self.benchmark!r}; "
                f"choose from {sorted(BENCHMARKS)}"
            )
        if self.problem_class not in CLASS_NAMES:
            raise ServiceError(
                f"unknown problem class {self.problem_class!r}; "
                f"choose from {list(CLASS_NAMES)}"
            )
        if self.nprocs < 1:
            raise ServiceError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.chain_length < 2:
            raise ServiceError(
                f"chain_length must be >= 2, got {self.chain_length}"
            )

    @property
    def key(self) -> tuple:
        """Full identity — the L1 cache key."""
        return (
            self.benchmark,
            self.problem_class,
            self.nprocs,
            self.chain_length,
            self.seed,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "problem_class": self.problem_class,
            "nprocs": self.nprocs,
            "chain_length": self.chain_length,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PredictRequest":
        """Build from a JSON object; unknown fields are rejected."""
        known = {"benchmark", "problem_class", "nprocs", "chain_length", "seed"}
        extra = set(data) - known
        if extra:
            raise ServiceError(f"unknown request fields: {sorted(extra)}")
        try:
            return cls(
                benchmark=data["benchmark"],
                problem_class=data["problem_class"],
                nprocs=_exact_int("nprocs", data["nprocs"]),
                chain_length=_exact_int("chain_length", data.get("chain_length", 2)),
                seed=_exact_int("seed", data.get("seed", 0)),
            )
        except KeyError as exc:
            raise ServiceError(f"request missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ServiceError(f"malformed request: {exc}") from None


class PredictionService:
    """Cached, single-flight, metered serving of prediction reports.

    Parameters mirror the subsystem layers: cache sizing (``cache_capacity``
    / ``cache_ttl`` / the memo directory ``cache_dir``), the worker pool
    (``max_workers`` / ``queue_depth`` / ``executor``), and the measurement
    protocol shared by every cell (``machine`` / ``measurement`` /
    ``application_seed``).

    ``executor`` is ``"process"`` (default: each cell's missing
    measurements, then the cell function, run as tasks on a long-lived
    pool of ``max_workers`` worker processes) or ``"inline"`` (the cell
    function alone runs each cell, one at a time, on one in-process cell
    thread). ``execute`` swaps the cell function, a callable from
    :class:`~repro.parallel.worker.CellSpec` to
    :class:`~repro.parallel.worker.CellResult` (default
    :func:`~repro.parallel.worker.run_cell`); under ``"process"`` it must
    be a module-level function, and tests that inject closures use
    ``"inline"``.

    Robustness knobs: ``default_timeout`` is the per-request deadline when
    a :meth:`predict` call passes none (misses that exceed it raise
    :class:`~repro.errors.ServiceTimeoutError`); ``crash_threshold``
    consecutive worker crashes flip the service into cache-only *degraded
    mode* (L1 hits and archived cells are still served, requests that
    would simulate raise :class:`~repro.errors.ServiceDegradedError`, and
    every ``degraded_probe_every``-th of those is let through as a
    recovery probe — one probe succeeding restores normal service).

    ``cache_dir`` points at a :mod:`repro.parallel` simulation memo
    directory, the service's one persistent tier: archived answers,
    whole cell records and single measurements found there are served
    without simulating them again, and everything the worker pool
    measures is stored back, so the serving layer shares warmed state
    with ``repro campaign --cache-dir``. Without it the service uses a
    private temporary directory that :meth:`close` removes.

    ``tier_policy`` selects the serving-ladder rung order (a
    :class:`~repro.analytic.tiers.TierPolicy` or a policy name): under
    ``fast``/``balanced`` the closed-form analytic tier answers first and
    escalates to memo/simulation when its self-reported confidence misses
    the policy's error budget; the default ``exact`` bypasses the analytic
    tier entirely, preserving bit-identical simulation results.
    """

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        measurement: Optional[MeasurementConfig] = None,
        *,
        cache_capacity: int = 1024,
        cache_ttl: Optional[float] = None,
        max_workers: int = 2,
        queue_depth: int = 16,
        executor: str = "process",
        application_seed: int = 7,
        execute: Callable[[CellSpec], CellResult] = run_cell,
        clock: Callable[[], float] = time.monotonic,
        default_timeout: Optional[float] = None,
        crash_threshold: int = 3,
        degraded_probe_every: int = 8,
        cache_dir: Optional[str] = None,
        tier_policy: "str | TierPolicy" = "exact",
    ):
        self.machine = machine or ibm_sp_argonne()
        self.tier_policy = resolve_tier_policy(tier_policy)
        self.measurement = measurement or MeasurementConfig()
        self.application_seed = application_seed
        self._clock = clock
        self._reports = LRUCache(
            capacity=cache_capacity, ttl=cache_ttl, clock=clock
        )
        self._memo = SimulationMemoStore(cache_dir)
        if default_timeout is not None and default_timeout <= 0:
            raise ServiceError(
                f"default_timeout must be positive, got {default_timeout}"
            )
        if degraded_probe_every < 1:
            raise ServiceError(
                f"degraded_probe_every must be >= 1, got {degraded_probe_every}"
            )
        self._execute = execute
        self.default_timeout = default_timeout
        self._pool = WorkerPool(
            max_workers=max_workers,
            queue_depth=queue_depth,
            kind=executor,
            retry_after=self._retry_after_estimate,
            crash_threshold=crash_threshold,
        )
        self.metrics = ServiceMetrics(queue_depth_fn=lambda: self._pool.outstanding)
        self._degraded_probe_every = degraded_probe_every
        self._degraded_misses = 0
        # Guards the single-flight registry, the degraded-probe counter and
        # the closed flag (the service state mutated after construction).
        self._lock = threading.Lock()
        self._in_flight: dict[tuple, Future] = {}
        self._closed = False

    # -- serving --------------------------------------------------------------

    def predict(
        self, request: PredictRequest, timeout: Optional[float] = None
    ) -> PredictionReport:
        """Serve one request, blocking until its report is ready.

        Raises :class:`~repro.errors.ServiceSaturatedError` (with a
        ``retry_after`` hint) instead of queueing when the worker pool is
        full and the request can neither be answered from a cache tier nor
        coalesced onto an in-flight duplicate;
        :class:`~repro.errors.ServiceTimeoutError` when the deadline
        (``timeout``, defaulting to the service's ``default_timeout``)
        expires first; and :class:`~repro.errors.ServiceDegradedError` for
        requests no cache tier answers while the service is degraded.
        """
        return self.answer(request, timeout).report

    def answer(
        self, request: PredictRequest, timeout: Optional[float] = None
    ) -> L1Entry:
        """Serve one request like :meth:`predict`, returning its L1 entry.

        The entry carries the report and the slot that keeps its rendered
        wire reply, so the wire front-end renders each answer once.
        """
        outcome, t0, lead = self._submit(request)
        if isinstance(outcome, L1Entry):
            # L1 hit: the microsecond path. Deliberately span-free — the
            # hit is already measured (l1_hits + latency histogram), and
            # a span here would cost more than the lookup it times.
            return outcome
        with obs.span("service.predict", benchmark=request.benchmark):
            if lead:
                self._dispatch(request, outcome)
            return self._await(outcome, t0, timeout)

    def predict_many(
        self,
        requests: Sequence[PredictRequest],
        timeout: Optional[float] = None,
        return_exceptions: bool = False,
    ) -> list:
        """Serve a burst of requests, each cold one as its own cell.

        The cells' shared measurements are simulated once: the worker
        pool awaits a measurement already in flight.
        """
        outcomes = []
        for request in requests:
            try:
                outcome, t0, lead = self._submit(request)
            except ServiceError as exc:
                if not return_exceptions:
                    raise
                outcome, t0, lead = exc, 0.0, False
            if lead:
                self._dispatch(request, outcome)
            outcomes.append((outcome, t0))
        results = []
        for outcome, t0 in outcomes:
            try:
                if isinstance(outcome, Future):
                    outcome = self._await(outcome, t0, timeout)
            except Exception as exc:  # noqa: BLE001 — caller opted in
                if not return_exceptions:
                    raise
                outcome = exc
            results.append(
                outcome.report if isinstance(outcome, L1Entry) else outcome
            )
        return results

    def _submit(self, request: PredictRequest):
        """Tier ladder: L1, analytic rung, store rung, gates, single-flight.

        Returns ``(entry_or_future, start_time, lead)``. ``lead`` is True
        when this request opened a new flight: its caller must
        :meth:`_dispatch` it.
        """
        t0 = self._clock()
        self.metrics.requests.inc()
        key = request.key
        entry = self._cached_entry(key)
        if entry is not None:
            self.metrics.l1_hits.inc()
            dt = self._clock() - t0
            self.metrics.latency.observe(dt)
            self.metrics.record_tier(entry.report.tier, dt)
            return entry, t0, False
        if self.tier_policy.use_analytic:
            # The analytic rung sits *above* the degraded/saturation gates:
            # closed forms need no workers, so a degraded pool still serves
            # every request the policy's error budget accepts.
            entry = self._serve_analytic(request, t0)
            if entry is not None:
                return entry, t0, False
        in_flight = key in self._in_flight
        if not in_flight:
            # The store rung needs no workers either: an archived cell is
            # answered here, ahead of the gates. A request already in
            # flight joins it instead.
            entry = self._serve_archived(request, t0)
            if entry is not None:
                return entry, t0, False
        if not self._pool.healthy and not in_flight:
            # Degraded mode: cache-only, except for a periodic probe that
            # tests whether the pool has recovered.
            with self._lock:
                self._degraded_misses += 1
                probe = self._degraded_misses % self._degraded_probe_every == 0
            if not probe:
                self.metrics.degraded_rejects.inc()
                raise ServiceDegradedError(
                    "service degraded (worker pool unhealthy); "
                    "serving cached reports only"
                )
        if self._pool.saturated and not in_flight:
            self.metrics.rejected.inc()
            raise ServiceSaturatedError(
                "service saturated; retry later",
                retry_after=self._pool.retry_after_hint(),
            )
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            future = self._in_flight.get(key)
            lead = future is None
            if future is None:
                future = self._in_flight[key] = Future()
        if lead:
            future.add_done_callback(lambda _f: self._forget(key))
        else:
            self.metrics.coalesced.inc()
        return future, t0, lead

    def _cached_entry(self, key: tuple) -> Optional[L1Entry]:
        """The L1 entry for ``key``, or None.

        The ``cache.l1.drop`` fault models L1 read corruption: in-process
        entries carry no checksum, so the safe failure mode is to treat
        the entry (report and rendered reply alike) as lost and recompute
        (a miss, never garbage).
        """
        if faults.check("cache.l1.drop") is not None:
            self._reports.drop(key)
            return None
        return self._reports.get(key)

    def _forget(self, key: tuple) -> None:
        """Close a resolved flight: the next request for it starts anew."""
        with self._lock:
            self._in_flight.pop(key, None)

    # -- the analytic rung ----------------------------------------------------

    def _serve_analytic(
        self, request: PredictRequest, t0: float
    ) -> Optional[L1Entry]:
        """Answer from the closed-form tier, or None to escalate."""
        analytic_key = request.key + (TIER_ANALYTIC,)
        entry = self._cached_entry(analytic_key)
        if entry is not None:
            self.metrics.l1_hits.inc()
        else:
            report = self._analytic_report(request)
            if report is None:
                return None
            entry = L1Entry(report)
            self._reports.put(analytic_key, entry)
        dt = self._clock() - t0
        self.metrics.latency.observe(dt)
        self.metrics.record_tier(TIER_ANALYTIC, dt)
        return entry

    def _analytic_report(
        self, request: PredictRequest
    ) -> Optional[PredictionReport]:
        """One fresh closed-form evaluation, or None (counted escalation).

        Escalates on invalid chain lengths (the simulation path raises the
        matching typed error to the waiter) and whenever the self-reported
        confidence misses the policy's error budget.
        """
        from repro.analytic.model import AnalyticPredictor

        try:
            predictor = AnalyticPredictor.for_config(
                self.machine,
                request.benchmark,
                request.problem_class,
                request.nprocs,
            )
            analytic = predictor.report((request.chain_length,))
        except Exception:  # noqa: BLE001 — any analytic failure escalates
            self.metrics.analytic_escalations.inc()
            return None
        if not self.tier_policy.accepts(analytic.expected_rel_error):
            self.metrics.analytic_escalations.inc()
            return None
        return analytic.prediction_report((request.chain_length,))

    # -- the store rung -------------------------------------------------------

    def _serve_archived(
        self, request: PredictRequest, t0: float
    ) -> Optional[L1Entry]:
        """Answer an archived cell on the request thread, or None to simulate.

        One read of the request's archive record and no write: a miss (or
        a corrupt record, purged by the read) sends the request on to
        single-flight and dispatch unchanged.
        """
        if self._closed:
            raise ServiceClosedError("service is shut down")
        with obs.span("service.store", benchmark=request.benchmark):
            archived = self._memo.get(self._archive_key(request))
            if archived is None:
                return None
            inputs = PredictionInputs.from_dict(archived["inputs"])
        self._record_analytic_error(request, archived["actual"])
        entry = self._report(request, inputs, archived["actual"], warm=True)
        dt = self._clock() - t0
        self.metrics.latency.observe(dt)
        self.metrics.record_tier(entry.report.tier, dt)
        return entry

    def _archive_key(self, request: PredictRequest) -> MemoKey:
        """The seed-free archive key of the request's cell and length."""
        return archive_key(
            self.machine,
            self.measurement,
            request.benchmark,
            request.problem_class,
            request.nprocs,
            request.chain_length,
            self.application_seed,
        )

    def _await(
        self, future: Future, t0: float, timeout: Optional[float]
    ) -> L1Entry:
        if timeout is None:
            timeout = self.default_timeout
        try:
            entry = future.result(timeout)
        except FuturesTimeoutError:
            # The flight stays registered: late duplicates still coalesce
            # and the eventual result still warms the cache — only this
            # caller's deadline expired.
            self.metrics.timeouts.inc()
            obs.get_registry().counter("request_timeout").inc()
            raise ServiceTimeoutError(
                f"request deadline of {timeout}s exceeded",
                timeout=timeout,
            ) from None
        except ServiceSaturatedError:
            self.metrics.rejected.inc()
            raise
        except Exception:  # noqa: BLE001 — count every failure kind, re-raise
            self.metrics.errors.inc()
            raise
        dt = self._clock() - t0
        self.metrics.latency.observe(dt)
        self.metrics.record_tier(entry.report.tier, dt)
        return entry

    # -- dispatch (calling thread) --------------------------------------------

    def _dispatch(self, request: PredictRequest, future: Future) -> None:
        """Turn the request's flight into a cell on the worker pool.

        Runs on the request's own thread, so the dispatch span (and the
        cell's) joins its trace. Any failure is relayed to the waiters.
        """
        try:
            with obs.span(
                "service.dispatch",
                benchmark=request.benchmark,
                cls=request.problem_class,
                nprocs=request.nprocs,
            ):
                self._start_cell(request, future)
        except BaseException as exc:  # noqa: BLE001 — relay to waiters
            _fail(future, exc)

    def _start_cell(self, request: PredictRequest, future: Future) -> None:
        if faults.check("engine.dispatch.error") is not None:
            raise InjectedFaultError(
                "injected engine dispatch failure (engine.dispatch.error)"
            )
        self.metrics.record_batch(1)
        bench = make_benchmark(
            request.benchmark, request.problem_class, request.nprocs
        )
        flow_length = len(bench.loop_kernel_names)
        if request.chain_length > flow_length:
            raise PredictionError(
                f"chain_length {request.chain_length} exceeds "
                f"the {request.benchmark} flow of {flow_length} kernels"
            )
        injector = faults.get_injector()
        spec = CellSpec(
            benchmark=request.benchmark,
            problem_class=request.problem_class,
            nprocs=request.nprocs,
            chain_lengths=(request.chain_length,),
            machine=self.machine,
            measurement=replace(self.measurement, seed=request.seed),
            application_seed=self.application_seed,
            cache_dir=str(self._memo.root),
            fault_plan=injector.plan if injector else None,
        )
        record_key = cell_key(
            spec.machine,
            spec.measurement,
            spec.benchmark,
            spec.problem_class,
            spec.nprocs,
            spec.chain_lengths,
            spec.application_seed,
        )
        record = self._memo.get(record_key)
        if record is not None:
            self.metrics.cell_seconds.observe(0.0)
            self._finish(request, future, record, simulations=0)
            return
        try:
            cell = self._pool.submit(self._execute, spec)
        except ServiceError:
            raise
        except Exception as exc:  # noqa: BLE001 — keep waiter errors typed
            raise ServiceError(f"worker submission failed: {exc}") from exc
        started = self._clock()

        def _done(cell: Future) -> None:
            self.metrics.cell_seconds.observe(self._clock() - started)
            try:
                # repro: ignore[REP003] — done-callback: cell already resolved
                result = cell.result()
                record = {"inputs": result.inputs, "actual": result.actual}
                self._memo.put(record_key, record)
                self._finish(
                    request,
                    future,
                    record,
                    simulations=result.memo_stats.get("stores", 0),
                )
            except BaseException as exc:  # noqa: BLE001 — relay to waiters
                _fail(future, exc)

        cell.add_done_callback(_done)

    def _finish(
        self,
        request: PredictRequest,
        future: Future,
        record: dict,
        simulations: int,
    ) -> None:
        """Archive the cell's answer, then answer the request's waiters.

        The archive record is created only if absent, so when an earlier
        cell (at any seed) archived it first, the waiters get that
        record's numbers like every later request.
        """
        self.metrics.simulations.inc(simulations)
        self._record_analytic_error(request, record["actual"])
        archived = self._memo.put_if_absent(
            self._archive_key(request), record
        )
        entry = self._report(
            request,
            PredictionInputs.from_dict(archived["inputs"]),
            archived["actual"],
            warm=simulations == 0,
        )
        if not future.done():
            future.set_result(entry)

    def _report(
        self,
        request: PredictRequest,
        inputs: PredictionInputs,
        actual: float,
        warm: bool,
    ) -> L1Entry:
        """One request's report in a new L1 entry, cached and counted."""
        report = PredictionReport(
            actual=actual,
            predictions={
                SummationPredictor.name: SummationPredictor().predict(inputs),
                f"Coupling: {request.chain_length} kernels": CouplingPredictor(
                    request.chain_length
                ).predict(inputs),
            },
            tier=TIER_MEMO if warm else TIER_SIMULATION,
        )
        entry = L1Entry(report)
        self._reports.put(request.key, entry)
        (self.metrics.l2_hits if warm else self.metrics.misses).inc()
        return entry

    def _record_analytic_error(
        self, request: PredictRequest, actual: float
    ) -> None:
        """Signed analytic-vs-ground-truth error, when both tiers answered.

        Ground truth (a simulated or memoized cell) just landed; if the
        active policy runs the analytic tier, score its application total
        against it so ``tier_signed_rel_error{tier=analytic}`` accumulates
        live cross-validation data — including for escalated cells.
        """
        if not self.tier_policy.use_analytic or actual <= 0:
            return
        from repro.analytic.model import AnalyticPredictor

        try:
            predictor = AnalyticPredictor.for_config(
                self.machine,
                request.benchmark,
                request.problem_class,
                request.nprocs,
            )
            analytic = predictor.report()
        except Exception:  # noqa: BLE001 — unsupported configs score nothing
            return
        self.metrics.record_signed_error(
            (analytic.actual - actual) / actual
        )

    def _retry_after_estimate(self) -> float:
        """Expected drain time of the current queue, floored at 100 ms."""
        mean_cell = self.metrics.cell_seconds.mean
        if mean_cell <= 0:
            return 1.0
        waves = max(1, -(-self._pool.outstanding // self._pool.max_workers))
        return max(0.1, waves * mean_cell)

    # -- observability / lifecycle --------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the worker pool is unhealthy (cache-only serving)."""
        return not self._pool.healthy

    @property
    def pool(self) -> "WorkerPool":
        """The worker pool (health/respawn introspection)."""
        return self._pool

    def stats(self) -> dict:
        """Service counters plus cache-tier counters, JSON-friendly."""
        snapshot = self.metrics.stats()
        snapshot["cache"] = {
            "l1": self._reports.stats(),
            "l2": {"path": str(self._memo.root)},
        }
        snapshot["memo"] = self._memo.stats()
        snapshot["degraded"] = self.degraded
        snapshot["worker_respawns"] = self._pool.respawns
        snapshot["worker_crashes"] = self._pool.crashes
        return snapshot

    def metrics_registries(self) -> tuple:
        """The registries a metrics exporter should render, gauges fresh.

        The service's own (namespaced) registry first, then the global one
        carrying span-duration histograms and simulator counters — together
        they are the full picture behind the TCP ``metrics`` command and
        ``repro metrics``.
        """
        self.metrics.refresh_gauges()
        return (self.metrics.registry, obs.get_registry())

    def close(self) -> None:
        """Refuse new flights, drain workers, remove a private memo store."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)
        self._memo.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

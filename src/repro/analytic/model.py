"""Closed-form (ECM-style) kernel and chain time models — the fast rung.

This module turns :mod:`repro.analytic.descriptors` into the same numbers
the measurement harness produces, without running the event loop:

* **Compute**: ``flops * flop_time`` plus the *expected* OS-jitter floor
  (``work_calls * noise_floor / 2``; the multiplicative noise is lognormal
  with mean 1, so it drops out in expectation).
* **Memory**: the per-rank region traffic is *replayed* through a real
  :class:`~repro.simmachine.memory.MemoryHierarchy` — the cache model is
  a few dict operations per region, so replaying is both exact (same
  residency algebra, hence the same coupling transitions) and still
  micro-second cheap. Cold replays give the isolated ``E_k``; self-warmed
  replays of a window give the chain times whose ratio is ``C_ij``.
  Ranks with identical working sets share one replayed hierarchy (block
  decompositions collapse most configurations to a handful of *rank
  classes*), which is the main reason the fast path stays orders of
  magnitude under the simulator.
* **Communication**: alpha/beta (latency/bandwidth) closed forms per
  phase — halo exchanges, multi-partition rings, LU's pipelined wavefront
  (fill + steady makespan), binomial/recursive-doubling collectives — with
  a one-step fixed-point contention factor standing in for the simulator's
  sliding-window backlog.

The deliberate omissions (event interleaving, per-message queueing, noise
sampling error) are what the self-reported ``expected_rel_error`` prices;
tier policies escalate to simulation when it exceeds their budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.analytic.descriptors import (
    AllreducePhase,
    BarrierPhase,
    BenchmarkDescriptors,
    HaloPhase,
    RingPhase,
    WavefrontPhase,
    describe,
)
from repro.analytic.tiers import TIER_ANALYTIC
from repro.core.kernel import ControlFlow
from repro.core.predictor import (
    CouplingPredictor,
    PredictionInputs,
    PredictionReport,
    SummationPredictor,
)
from repro.errors import PredictionError
from repro.simmachine.machine import AnalyticMachineProfile, MachineConfig
from repro.simmachine.memory import MemoryHierarchy

__all__ = [
    "ANALYTIC_REL_ERROR_BOUND",
    "AnalyticModel",
    "AnalyticPredictor",
    "AnalyticReport",
]

#: Documented accuracy bound of the analytic tier: on the golden BT/SP/LU
#: tables (``ibm_sp_argonne``; classes S/W/A; the tables' process counts)
#: per-kernel ``E_k``, chain times and the application total stay within
#: this relative error of the simulation ground truth. Cross-validated by
#: ``tests/analytic/test_cross_validation.py`` (class W) and
#: ``benchmarks/test_tier_ladder.py`` (class A); observed errors are
#: typically under 0.05.
ANALYTIC_REL_ERROR_BOUND = 0.10

# Confidence-model constants (see AnalyticModel.expected_rel_error).
_CONF_BASE = 0.03
_CONF_COMM_WEIGHT = 0.25
_CONF_NOISE_WEIGHT = 2.0
_CONF_CACHE_EDGE = 0.05

#: Self-warming cycles before a chain window is "measured". The LRU
#: residency state is cyclic-steady after one full pass (verified
#: bit-identical against longer warmups in the tier tests).
_WARM_CYCLES = 1


class AnalyticModel:
    """Evaluates one benchmark configuration's closed forms.

    The model owns one replayed :class:`MemoryHierarchy` per *rank class*
    (ranks with identical per-kernel flops and region sizes evolve
    identically); the sequence methods (:meth:`isolated_time`,
    :meth:`chain_time`, :meth:`application_time`) manage cache state
    exactly like the measurement protocol manages the simulated machine's.
    """

    def __init__(
        self, profile: AnalyticMachineProfile, desc: BenchmarkDescriptors
    ):
        self.profile = profile
        self.desc = desc
        # Collapse ranks into replay-equivalence classes.
        kernel_descs = list(desc.kernels.values())
        class_ids: dict[tuple, int] = {}
        self._class_of: list[int] = []
        representatives: list[int] = []
        for r in range(desc.nprocs):
            key = tuple(
                (
                    kd.ranks[r].flops,
                    kd.ranks[r].work_calls,
                    tuple(
                        (region.nbytes, nbytes, write)
                        for region, nbytes, write in kd.ranks[r].touches
                    ),
                )
                for kd in kernel_descs
            )
            idx = class_ids.setdefault(key, len(class_ids))
            if idx == len(representatives):
                representatives.append(r)
            self._class_of.append(idx)
        self._hiers = [
            MemoryHierarchy(
                profile.level_specs,
                profile.memory_byte_time,
                profile.write_factor,
            )
            for _ in representatives
        ]
        # Per-kernel, per-class precomputation (state-independent).
        floor = profile.expected_floor_jitter
        self._touches: dict[str, list[tuple]] = {}
        self._compute: dict[str, list[float]] = {}
        for name, kd in desc.kernels.items():
            self._touches[name] = [kd.ranks[r].touches for r in representatives]
            self._compute[name] = [
                kd.ranks[r].flops * profile.flop_time
                + kd.ranks[r].work_calls * floor
                for r in representatives
            ]

    # -- state management ---------------------------------------------------

    def _flush(self) -> None:
        for h in self._hiers:
            h.flush()

    def _replay(self, kernel: str) -> list[float]:
        """Stream one invocation's touches; per-class memory seconds."""
        out = []
        for hier, touches in zip(self._hiers, self._touches[kernel]):
            t = 0.0
            for region, nbytes, write in touches:
                t += hier.touch(region, nbytes, write=write).time
            out.append(t)
        return out

    # -- per-component closed forms ----------------------------------------

    def _phase_cost(self, phase, c: float) -> float:
        p = self.profile
        if isinstance(phase, HaloPhase):
            worst = 0.0
            for msgs in phase.sends:
                if not msgs:
                    continue
                t = sum(
                    p.per_message_overhead + b * p.injection_byte_time
                    for b in msgs
                )
                t += p.latency * c + max(msgs) * p.byte_time
                worst = max(worst, t)
            return worst
        if isinstance(phase, RingPhase):
            per_stage = max(
                p.per_message_overhead
                + b * p.injection_byte_time
                + p.latency * c
                + b * p.byte_time
                for b in phase.boundary
            )
            return phase.stages * per_stage
        if isinstance(phase, AllreducePhase):
            per_round = (
                p.per_message_overhead
                + phase.nbytes * (p.injection_byte_time + p.byte_time)
                + p.latency * c
            )
            return phase.rounds * per_round
        if isinstance(phase, BarrierPhase):
            return phase.rounds * (p.per_message_overhead + p.latency * c)
        raise PredictionError(f"unknown communication phase {phase!r}")

    def _wavefront_time(
        self,
        wf: WavefrontPhase,
        base: Sequence[float],
        c: float,
    ) -> float:
        """Pipeline makespan: steady planes plus diagonal fill/drain."""
        p = self.profile
        cycle = 0.0
        hop = 0.0
        for rank, bursts in enumerate(wf.bursts):
            inject = sum(
                m * p.per_message_overhead + nb * p.injection_byte_time
                for m, nb in bursts
            )
            cycle = max(
                cycle, base[self._class_of[rank]] / wf.planes + inject
            )
            for _m, nb in bursts:
                hop = max(hop, p.latency * c + nb * p.byte_time)
        fill = self.desc.px + self.desc.py - 2
        return wf.planes * cycle + fill * (cycle + hop)

    # -- kernel evaluation --------------------------------------------------

    def _eval_kernel(self, kernel: str) -> tuple[Callable[[float], float], float]:
        """Replay one invocation; return ``(time(c), work_seconds)``.

        Calling this *advances cache state by one invocation*; the returned
        closure is pure in the contention factor ``c``. ``work_seconds`` is
        the communication-free critical path (max-rank compute + memory).
        """
        mem = self._replay(kernel)
        base = [cm + mm for cm, mm in zip(self._compute[kernel], mem)]
        work = max(base)
        kd = self.desc.kernels[kernel]
        wavefront = next(
            (p for p in kd.phases if isinstance(p, WavefrontPhase)), None
        )
        if wavefront is not None:

            def time(c: float) -> float:
                return self._wavefront_time(wavefront, base, c)

        else:
            phases = kd.phases

            def time(c: float) -> float:
                return work + sum(self._phase_cost(p, c) for p in phases)

        return time, work

    def _contention(self, messages: int, duration: float) -> float:
        """Fixed-point contention factor for a window of ``duration``."""
        p = self.profile
        if (
            messages <= 0
            or p.contention_coeff <= 0
            or p.drain_window <= 0
            or duration <= 0
        ):
            return 1.0
        backlog = min(messages / 2.0, messages * p.drain_window / duration)
        return 1.0 + p.contention_coeff * backlog

    def _settle(
        self, time_fn: Callable[[float], float], messages: int
    ) -> float:
        """One contention refinement: t(c=1) sizes the backlog, then t(c)."""
        t0 = time_fn(1.0)
        c = self._contention(messages, t0)
        return time_fn(c) if c != 1.0 else t0

    # -- sequences (mirror the measurement protocol) ------------------------

    def isolated_time(self, kernel: str) -> float:
        """Cold-start per-invocation time — the harness's isolated ``E_k``."""
        self._flush()
        time_fn, _work = self._eval_kernel(kernel)
        return self._settle(time_fn, self.desc.kernels[kernel].messages)

    def chain_time(self, window: Iterable[str]) -> float:
        """Steady-state per-cycle time of a self-warming chain loop."""
        window = tuple(window)
        self._flush()
        for _ in range(_WARM_CYCLES):
            for k in window:
                self._replay(k)
        fns = []
        messages = 0
        for k in window:
            fn, _work = self._eval_kernel(k)
            fns.append(fn)
            messages += self.desc.kernels[k].messages
        return self._settle(lambda c: sum(fn(c) for fn in fns), messages)

    def steady_cycle(self) -> tuple[float, float]:
        """``(cycle_seconds, work_seconds)`` of the full steady loop.

        ``work_seconds`` is the communication-free portion, which the
        confidence model uses to price the comm fraction. Warms from the
        *current* cache state and leaves the hierarchies loop-warm
        (callers continue into post kernels).
        """
        loop = self.desc.loop_kernels
        for _ in range(_WARM_CYCLES):
            for k in loop:
                self._replay(k)
        fns = []
        messages = 0
        work_total = 0.0
        for k in loop:
            fn, work = self._eval_kernel(k)
            fns.append(fn)
            work_total += work
            messages += self.desc.kernels[k].messages
        cycle = self._settle(lambda c: sum(fn(c) for fn in fns), messages)
        return cycle, work_total

    def application_time(self) -> tuple[float, float, float]:
        """``(total, steady_cycle, steady_work)`` of the full application.

        Mirrors :class:`~repro.instrument.runner.ApplicationRunner`: pre
        kernels run cold in sequence, the loop contributes its steady-state
        cycle times ``iterations``, post kernels run on a loop-warm machine.
        """
        desc = self.desc
        self._flush()
        total = 0.0
        for k in desc.pre_kernels:
            fn, _work = self._eval_kernel(k)
            total += self._settle(fn, desc.kernels[k].messages)
        cycle, work = self.steady_cycle()
        total += desc.iterations * cycle
        for k in desc.post_kernels:
            fn, _work = self._eval_kernel(k)
            total += self._settle(fn, desc.kernels[k].messages)
        return total, cycle, work

    # -- confidence ---------------------------------------------------------

    def expected_rel_error(
        self, cycle: float | None = None, work: float | None = None
    ) -> float:
        """Self-reported expected relative error vs the simulator.

        A transparent additive budget: a base term for the closed forms'
        structural simplifications, a term growing with the communication
        fraction of the steady cycle (event interleaving and queueing are
        what the closed forms simplify most), a term for the OS-jitter
        floor share (sampling scatter the harness averages over only a few
        repetitions), and a step penalty when the per-rank footprint sits
        near the outer cache capacity (residency-edge sensitivity).

        Callers that already ran :meth:`steady_cycle` /
        :meth:`application_time` pass its ``(cycle, work)`` to avoid a
        second pass.
        """
        if cycle is None or work is None:
            self._flush()
            cycle, work = self.steady_cycle()
        if cycle <= 0:
            return float("inf")
        comm_fraction = max(0.0, 1.0 - work / cycle)
        floor = self.profile.expected_floor_jitter
        noise_seconds = sum(
            max(rw.work_calls for rw in self.desc.kernels[k].ranks) * floor
            for k in self.desc.loop_kernels
        )
        noise_fraction = min(1.0, noise_seconds / cycle)
        err = (
            _CONF_BASE
            + _CONF_COMM_WEIGHT * comm_fraction
            + _CONF_NOISE_WEIGHT * noise_fraction
        )
        outer = self.profile.level_specs[-1][1]
        per_rank = self.desc.max_footprint_bytes
        if outer and 0.5 <= per_rank / outer <= 2.0:
            err += _CONF_CACHE_EDGE
        return err


@dataclass(frozen=True)
class AnalyticReport:
    """The analytic tier's answer for one configuration.

    ``inputs`` is a drop-in :class:`~repro.core.predictor.PredictionInputs`
    (analytic ``E_k`` as loop times, analytic chain times per window), so
    the *same* summation/coupling predictors run downstream of either tier.
    """

    benchmark: str
    problem_class: str
    nprocs: int
    flow: ControlFlow
    actual: float
    inputs: PredictionInputs
    expected_rel_error: float
    steady_cycle: float

    def prediction_report(
        self, chain_lengths: Sequence[int] = ()
    ) -> PredictionReport:
        """Summation + coupling predictions against the analytic actual."""
        predictions = {
            SummationPredictor.name: SummationPredictor().predict(self.inputs)
        }
        for length in chain_lengths:
            predictor = CouplingPredictor(length)
            predictions[predictor.name] = predictor.predict(self.inputs)
        return PredictionReport(
            actual=self.actual, predictions=predictions, tier=TIER_ANALYTIC
        )


class AnalyticPredictor:
    """Produces :class:`AnalyticReport`\\ s for supported configurations."""

    def __init__(self, machine: MachineConfig, benchmark) -> None:
        self.machine = machine
        self.benchmark = benchmark
        self.desc = describe(benchmark)  # PredictionError for CG/MG/...
        self.profile = machine.analytic_profile()

    @classmethod
    def for_config(
        cls,
        machine: MachineConfig,
        benchmark: str,
        problem_class: str,
        nprocs: int,
    ) -> "AnalyticPredictor":
        from repro.npb import make_benchmark

        return cls(machine, make_benchmark(benchmark, problem_class, nprocs))

    def _model(self) -> AnalyticModel:
        return AnalyticModel(self.profile, self.desc)

    def report(self, chain_lengths: Sequence[int] = ()) -> AnalyticReport:
        """Full analytic answer: ``E_k``, chain times, app total, confidence."""
        desc = self.desc
        flow = ControlFlow(desc.loop_kernels)
        for length in chain_lengths:
            if not 2 <= length <= len(flow):
                raise PredictionError(
                    f"chain length {length} invalid for {desc.benchmark} "
                    f"(flow of {len(flow)})"
                )
        model = self._model()
        loop_times = {k: model.isolated_time(k) for k in desc.loop_kernels}
        pre_times = {k: model.isolated_time(k) for k in desc.pre_kernels}
        post_times = {k: model.isolated_time(k) for k in desc.post_kernels}
        chain_times: dict[tuple[str, ...], float] = {}
        for length in chain_lengths:
            for window in flow.windows(length):
                if window not in chain_times:
                    chain_times[window] = model.chain_time(window)
        actual, cycle, work = model.application_time()
        inputs = PredictionInputs(
            flow=flow,
            iterations=desc.iterations,
            loop_times=loop_times,
            pre_times=pre_times,
            post_times=post_times,
            chain_times=chain_times,
        )
        return AnalyticReport(
            benchmark=desc.benchmark,
            problem_class=desc.problem_class,
            nprocs=desc.nprocs,
            flow=flow,
            actual=actual,
            inputs=inputs,
            expected_rel_error=model.expected_rel_error(cycle, work),
            steady_cycle=cycle,
        )

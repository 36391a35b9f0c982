"""Shared measurement/prediction pipeline for the experiment drivers.

A pipeline with ``jobs > 1`` owns one
:class:`~repro.parallel.executor.CellPool`, started by its first cold
cell and stopped by :meth:`ExperimentPipeline.close` (or when the
pipeline is collected); the cold cells of all its sweeps share it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro import faults, obs
from repro.analytic.tiers import TIER_ANALYTIC, TierPolicy, resolve_tier_policy
from repro.core.kernel import ControlFlow
from repro.core.predictor import (
    CouplingPredictor,
    PredictionInputs,
    SummationPredictor,
)
from repro.instrument.runner import MeasurementConfig
from repro.parallel.executor import CellPool, execute_cells
from repro.parallel.keys import cell_key
from repro.parallel.memo import SimulationMemoStore
from repro.parallel.worker import CellSpec
from repro.simmachine.machine import MachineConfig, ibm_sp_argonne

__all__ = ["ExperimentSettings", "ConfigResult", "ExperimentPipeline"]


@dataclass(frozen=True)
class ExperimentSettings:
    """Machine + measurement configuration shared by all experiments."""

    machine: MachineConfig = field(default_factory=ibm_sp_argonne)
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    application_seed: int = 7


@dataclass
class ConfigResult:
    """Everything measured and predicted at one (benchmark, class, procs)."""

    benchmark: str
    problem_class: str
    nprocs: int
    flow: ControlFlow
    actual: float
    inputs: PredictionInputs
    #: The serving-ladder rung that produced these numbers
    #: ("analytic" | "simulation"); memoized cells replay simulation data.
    tier: str = "simulation"
    #: The chain lengths whose windows ``inputs`` holds, ascending.
    chain_lengths: tuple[int, ...] = ()
    #: Derived-value memo only — excluded from comparison and from pickling
    #: so results cross process boundaries as pure measurement data.
    _coupling_cache: dict[int, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def summation(self) -> float:
        """The summation-methodology prediction."""
        return SummationPredictor().predict(self.inputs)

    def coupling_prediction(self, chain_length: int) -> float:
        """The coupling prediction for a given chain length."""
        if chain_length not in self._coupling_cache:
            self._coupling_cache[chain_length] = CouplingPredictor(
                chain_length
            ).predict(self.inputs)
        return self._coupling_cache[chain_length]

    def coupling_values(self, chain_length: int) -> dict[tuple[str, ...], float]:
        """``window -> coupling value`` for a given chain length."""
        return (
            CouplingPredictor(chain_length)
            .coupling_set(self.inputs)
            .values()
        )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_coupling_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


class ExperimentPipeline:
    """Measures configurations on demand and caches everything.

    Every cell is measured by
    :func:`~repro.parallel.executor.execute_cells`: inline with
    :func:`~repro.parallel.worker.run_cell` through the memo store, or
    (under ``jobs > 1``) on the pipeline's worker pool. A cell asked for
    more chain lengths than it holds is measured again at the union of
    both, and the memo's seed-keyed measurement records make that run
    simulate only the new windows — mirroring how the paper reuses one
    experimental campaign across its tables.

    ``memo`` (a directory path or a :class:`SimulationMemoStore`) is the
    content-addressed simulation cache: each cell is first read as one
    cell record, and every chain/application simulation is looked up
    before it runs and stored after. Without it the pipeline uses a
    private temporary store, removed by :meth:`close` or when the store
    is collected. ``jobs > 1`` fans the measurements that the cells
    still need, one task each, across ``jobs`` worker processes. Both
    are safe because the simulation tier is deterministic (REP001):
    serial, parallel, and cache-warm runs produce bit-identical numbers.

    ``tier_policy`` (a :class:`~repro.analytic.tiers.TierPolicy` or name)
    turns on the closed-form fast path: under ``fast``/``balanced``,
    configurations the analytic tier answers within the policy's error
    budget skip measurement entirely (``ConfigResult.tier == "analytic"``);
    everything else — and every configuration under the default ``exact``
    policy — takes the unchanged simulation path, so ``exact`` results stay
    bit-identical to pre-ladder pipelines.
    """

    def __init__(
        self,
        settings: Optional[ExperimentSettings] = None,
        memo: Union[SimulationMemoStore, str, os.PathLike, None] = None,
        jobs: int = 1,
        tier_policy: "str | TierPolicy" = "exact",
    ):
        self.settings = settings or ExperimentSettings()
        self.memo = (
            memo
            if isinstance(memo, SimulationMemoStore)
            else SimulationMemoStore(memo)
        )
        self.jobs = jobs
        self._pool: Optional[CellPool] = None
        self.tier_policy = resolve_tier_policy(tier_policy)
        self._results: dict[tuple[str, str, int], ConfigResult] = {}
        #: Analytic answers are per-(config, chain lengths) — more windows
        #: mean a fresh closed-form pass, never a partial mutation.
        self._analytic_results: dict[tuple, ConfigResult] = {}

    def close(self) -> None:
        """Stop the worker pool; close the memo store (a private one goes)."""
        if self._pool is not None:
            self._pool.shutdown()
        self.memo.close()

    def _analytic_result(
        self,
        benchmark: str,
        problem_class: str,
        nprocs: int,
        chain_lengths: Sequence[int],
    ) -> Optional[ConfigResult]:
        """The closed-form tier's answer, or None to escalate to simulation.

        Escalates when a chain length is invalid (the simulation path
        raises the matching :class:`~repro.errors.ExperimentError`) or when
        the self-reported confidence misses the policy's error budget.
        """
        from repro.errors import PredictionError

        lengths = tuple(sorted(set(int(length) for length in chain_lengths)))
        key = (benchmark, problem_class, nprocs, lengths)
        if key in self._analytic_results:
            return self._analytic_results[key]
        from repro.analytic.model import AnalyticPredictor

        try:
            predictor = AnalyticPredictor.for_config(
                self.settings.machine, benchmark, problem_class, nprocs
            )
            report = predictor.report(lengths)
        except PredictionError:
            return None
        if not self.tier_policy.accepts(report.expected_rel_error):
            return None
        result = ConfigResult(
            benchmark=report.benchmark,
            problem_class=report.problem_class,
            nprocs=report.nprocs,
            flow=report.flow,
            actual=report.actual,
            inputs=report.inputs,
            tier=TIER_ANALYTIC,
            chain_lengths=lengths,
        )
        self._analytic_results[key] = result
        obs.get_registry().counter(
            "pipeline_tier_results", tier=TIER_ANALYTIC
        ).inc()
        return result

    def config_result(
        self,
        benchmark: str,
        problem_class: str,
        nprocs: int,
        chain_lengths: Sequence[int] = (),
    ) -> ConfigResult:
        """Measured + predicted numbers for one configuration.

        ``chain_lengths`` lists the coupling chain lengths the caller will
        query; their windows are measured (once) here. An invalid length
        raises :class:`~repro.errors.ExperimentError`.
        """
        if self.tier_policy.use_analytic:
            analytic = self._analytic_result(
                benchmark, problem_class, nprocs, chain_lengths
            )
            if analytic is not None:
                return analytic
        key = (benchmark, problem_class, nprocs)
        if not self._holds(key, chain_lengths):
            self._measure(benchmark, problem_class, [nprocs], chain_lengths)
        return self._results[key]

    def _holds(
        self, key: tuple[str, str, int], chain_lengths: Sequence[int]
    ) -> bool:
        """True when the cell is measured at every one of ``chain_lengths``."""
        result = self._results.get(key)
        return result is not None and set(chain_lengths) <= set(
            result.chain_lengths
        )

    def _measure(
        self,
        benchmark: str,
        problem_class: str,
        proc_counts: Sequence[int],
        chain_lengths: Sequence[int],
    ) -> None:
        """Measure cells at the union of their held and new chain lengths.

        Each cell is first read as one verified cell record
        (:func:`~repro.parallel.keys.cell_key`, the record the serving
        engine shares). The rest go to
        :func:`~repro.parallel.executor.execute_cells` together, inline or
        (for ``jobs > 1``, even for one cell) on the pipeline's pool, whose
        workers re-install the active fault plan and share the memo store
        by path. Each measured cell is written back as a cell record.
        """
        injector = faults.get_injector()
        pending = []
        for p in dict.fromkeys(proc_counts):
            held = self._results.get((benchmark, problem_class, p))
            lengths = tuple(
                sorted(
                    {int(n) for n in chain_lengths}.union(
                        held.chain_lengths if held is not None else ()
                    )
                )
            )
            record_key = cell_key(
                self.settings.machine,
                self.settings.measurement,
                benchmark,
                problem_class,
                p,
                lengths,
                self.settings.application_seed,
            )
            record = self.memo.get(record_key)
            if record is not None:
                self._adopt(benchmark, problem_class, p, lengths, record)
                continue
            spec = CellSpec(
                benchmark=benchmark,
                problem_class=problem_class,
                nprocs=p,
                chain_lengths=lengths,
                machine=self.settings.machine,
                measurement=self.settings.measurement,
                cache_dir=str(self.memo.root),
                application_seed=self.settings.application_seed,
                fault_plan=injector.plan if injector else None,
                profile_interval=obs.profile.worker_interval(),
            )
            pending.append((record_key, spec))
        if not pending:
            return
        if self.jobs > 1 and self._pool is None:
            self._pool = CellPool(self.jobs)
        cells = execute_cells([spec for _, spec in pending], self._pool)
        for (record_key, _), cell in zip(pending, cells):
            self.memo.absorb(cell.memo_stats)
            record = {"inputs": cell.inputs, "actual": cell.actual}
            self.memo.put(record_key, record)
            self._adopt(
                benchmark, problem_class, cell.nprocs, cell.chain_lengths,
                record,
            )

    def _adopt(
        self,
        benchmark: str,
        problem_class: str,
        nprocs: int,
        chain_lengths: tuple[int, ...],
        record: dict,
    ) -> None:
        """Fold a measured cell or a memo cell record into the results."""
        inputs = PredictionInputs.from_dict(record["inputs"])
        self._results[(benchmark, problem_class, nprocs)] = ConfigResult(
            benchmark=benchmark,
            problem_class=problem_class,
            nprocs=nprocs,
            flow=inputs.flow,
            actual=record["actual"],
            inputs=inputs,
            chain_lengths=chain_lengths,
        )

    def sweep(
        self,
        benchmark: str,
        problem_class: str,
        proc_counts: Sequence[int],
        chain_lengths: Sequence[int] = (),
    ) -> list[ConfigResult]:
        """Config results across processor counts (one table column each).

        Cells the pipeline already holds at ``chain_lengths``, and cells
        the analytic tier answers, are not measured again. The rest are
        measured together (see :meth:`_measure`): under ``jobs > 1`` their
        missing measurements share the pipeline's worker pool, so the
        sweep's largest cell does not set its wall time, and a fully warm
        sweep starts no worker. Results come back in ``proc_counts`` order
        either way.
        """
        missing = [
            p
            for p in proc_counts
            if not self._holds((benchmark, problem_class, p), chain_lengths)
        ]
        if self.tier_policy.use_analytic:
            # Cells the analytic tier answers never reach the worker pool;
            # only escalated ones are worth a process fan-out.
            missing = [
                p
                for p in missing
                if self._analytic_result(
                    benchmark, problem_class, p, chain_lengths
                )
                is None
            ]
        self._measure(benchmark, problem_class, missing, chain_lengths)
        return [
            self.config_result(benchmark, problem_class, p, chain_lengths)
            for p in proc_counts
        ]

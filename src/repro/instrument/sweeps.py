"""Measurement campaigns: multi-configuration sweeps with persistence.

A :class:`Campaign` runs the full measurement protocol (isolated kernels,
chain windows, pre/post kernels) over a grid of (class, nprocs)
configurations, memoizing every measurement in a
:class:`~repro.instrument.database.PerformanceDatabase`. Re-running a
campaign against the same database is incremental: only missing
measurements execute — the practical workflow the paper's Prophesy system
[TG01] was built around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import obs
from repro.core.predictor import PredictionInputs
from repro.errors import ConfigurationError, MeasurementError
from repro.instrument.database import CellRows, PerformanceDatabase
from repro.instrument.runner import ChainRunner, MeasurementConfig
from repro.npb import make_benchmark
from repro.parallel.memo import SimulationMemoStore
from repro.parallel.worker import (
    cell_inputs,
    measure_chain,
    prime_runner_overhead,
)
from repro.simmachine.machine import MachineConfig

__all__ = ["CampaignPlan", "Campaign"]


class _Unarchived(Exception):
    """A replay met a row the database does not hold."""


@dataclass(frozen=True)
class CampaignPlan:
    """What a campaign should measure."""

    benchmark: str
    problem_classes: tuple[str, ...]
    proc_counts: tuple[int, ...]
    chain_lengths: tuple[int, ...] = (2,)
    include_one_shots: bool = True

    def __post_init__(self) -> None:
        if not self.problem_classes or not self.proc_counts:
            raise MeasurementError("campaign plan needs classes and proc counts")
        if any(length < 2 for length in self.chain_lengths):
            raise MeasurementError("chain lengths must be >= 2")

    def configurations(self) -> list[tuple[str, int]]:
        """All (class, nprocs) cells of the sweep grid."""
        return [
            (cls, procs)
            for cls in self.problem_classes
            for procs in self.proc_counts
        ]

    @classmethod
    def for_cell(
        cls,
        benchmark: str,
        problem_class: str,
        nprocs: int,
        chain_lengths: Sequence[int] = (2,),
        include_one_shots: bool = True,
    ) -> "CampaignPlan":
        """A single-cell plan — the unit the serving layer batches on.

        :mod:`repro.service.batching` groups coalesced requests by
        (benchmark, class, nprocs) and turns each group into one of these,
        so a batch shares the runner warm-up and memoizes through the same
        database a sweep would.
        """
        return cls(
            benchmark=benchmark,
            problem_classes=(problem_class,),
            proc_counts=(nprocs,),
            chain_lengths=tuple(sorted(set(chain_lengths))),
            include_one_shots=include_one_shots,
        )


@dataclass
class Campaign:
    """Executes a plan, memoizing through a performance database."""

    plan: CampaignPlan
    machine: MachineConfig
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    database: Optional[PerformanceDatabase] = None
    #: Optional content-addressed simulation memo (see
    #: :mod:`repro.parallel.memo`) layered *under* the database: a database
    #: miss consults the memo before simulating, so campaigns share
    #: already-simulated work with pipelines and the serving engine.
    memo: Optional[SimulationMemoStore] = None

    def __post_init__(self) -> None:
        if self.database is None:
            self.database = PerformanceDatabase()
        self.measurements_run = 0
        self.measurements_reused = 0

    def _reused(self, cached):
        """Count an archived measurement as reused; passes it through."""
        if cached is not None:
            self.measurements_reused += 1
            obs.get_registry().counter("campaign_measurements_reused").inc()
        return cached

    def _measure(self, runner: ChainRunner, kernels: Sequence[str]):
        bench = runner.benchmark
        cached = self._reused(
            self.database.get(
                bench.name, bench.size.problem_class, bench.nprocs,
                tuple(kernels),
            )
        )
        if cached is not None:
            return cached
        measured = measure_chain(runner, kernels, self.memo)
        stored = self.database.store_if_absent(measured)
        self.measurements_run += 1
        obs.get_registry().counter("campaign_measurements_run").inc()
        return stored

    def run_configuration(self, problem_class: str, nprocs: int) -> PredictionInputs:
        """Measure (or load) one cell; returns ready prediction inputs."""
        with obs.span(
            "campaign.run",
            benchmark=self.plan.benchmark,
            cls=problem_class,
            nprocs=nprocs,
        ):
            inputs = self._run_configuration(problem_class, nprocs)
        obs.get_registry().counter("campaign_runs_completed").inc()
        return inputs

    def _run_configuration(
        self, problem_class: str, nprocs: int
    ) -> PredictionInputs:
        bench = make_benchmark(self.plan.benchmark, problem_class, nprocs)
        runner = ChainRunner(bench, self.machine, self.measurement)
        prime_runner_overhead(runner, self.memo)
        return cell_inputs(
            bench,
            self.plan.chain_lengths,
            lambda kernels: self._measure(runner, kernels).mean,
            self.plan.include_one_shots,
        )

    def replay_configuration(
        self, problem_class: str, nprocs: int, rows: CellRows
    ) -> Optional[PredictionInputs]:
        """One cell's inputs from archived rows alone, or None.

        ``rows`` is the cell's snapshot
        (:meth:`~repro.instrument.database.PerformanceDatabase.read_cell`).
        Looks up exactly the rows :meth:`run_configuration` would measure,
        in that order, and never simulates: the first missing (or corrupt)
        row, an invalid cell or an invalid chain length returns None,
        leaving the cell to a measuring run.
        """

        def archived_mean(kernels: tuple[str, ...]) -> float:
            cached = self._reused(rows(kernels))
            if cached is None:
                raise _Unarchived
            return cached.mean

        try:
            bench = make_benchmark(self.plan.benchmark, problem_class, nprocs)
            return cell_inputs(
                bench,
                self.plan.chain_lengths,
                archived_mean,
                self.plan.include_one_shots,
            )
        except (_Unarchived, ConfigurationError):
            return None

    def run(self) -> dict[tuple[str, int], PredictionInputs]:
        """Measure every cell of the plan; returns inputs per cell."""
        return {
            (cls, procs): self.run_configuration(cls, procs)
            for cls, procs in self.plan.configurations()
        }

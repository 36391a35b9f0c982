"""The assembled machine and the per-rank execution context.

A :class:`Machine` instance is one *run*: it owns a fresh simulator clock,
per-rank memory hierarchies, the shared network, and per-rank noise streams.
Kernel programs are generator functions taking a :class:`RankContext`; they
express work with :meth:`RankContext.work` (compute + memory traffic, a
single engine event) and communicate through the MPI-like layer attached as
``ctx.comm`` (see :func:`repro.simmpi.attach_world`).

Counters are accumulated per rank per *label* (the currently executing
kernel's name), which is what the profiler and cache-miss metrics read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Sequence, Union

from repro import obs
from repro.errors import ConfigurationError, SimulationError
from repro.simmachine.engine import Event, Process, Simulator
from repro.simmachine.machine import MachineConfig
from repro.simmachine.memory import DataRegion, MemoryHierarchy
from repro.simmachine.network import NetworkModel
from repro.simmachine.noise import NoiseModel
from repro.simmachine.trace import Trace

__all__ = ["KernelCounters", "Machine", "RankContext"]

#: A kernel program: per-rank generator of engine events.
ProgramFn = Callable[["RankContext"], Generator[Event, Any, Any]]


@dataclass
class KernelCounters:
    """Per-(rank, label) activity counters."""

    compute_time: float = 0.0
    memory_time: float = 0.0
    flops: float = 0.0
    bytes_touched: int = 0
    bytes_from_memory: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    wait_time: float = 0.0

    @property
    def busy_time(self) -> float:
        """Compute + memory time (excludes communication waits)."""
        return self.compute_time + self.memory_time

    def merge(self, other: "KernelCounters") -> None:
        """Accumulate another counter set into this one."""
        self.compute_time += other.compute_time
        self.memory_time += other.memory_time
        self.flops += other.flops
        self.bytes_touched += other.bytes_touched
        self.bytes_from_memory += other.bytes_from_memory
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.wait_time += other.wait_time


class RankContext:
    """Execution context handed to a kernel program on one rank."""

    def __init__(self, machine: "Machine", rank: int) -> None:
        self.machine = machine
        self.rank = rank
        self.sim: Simulator = machine.sim
        self.memory: MemoryHierarchy = machine.memories[rank]
        self._noise = machine.noise_streams[rank]
        # Read once per compute_seconds call; the config is immutable.
        self._flop_time = machine.config.processor.flop_time
        self._noise_floor = machine.config.noise_floor
        self.label = "_"
        self.comm = None  # attached by repro.simmpi.attach_world
        self.counters: dict[str, KernelCounters] = {}
        # counters[label], once the label has been charged; set_label clears it.
        self._current: Optional[KernelCounters] = None

    # -- bookkeeping -------------------------------------------------------

    def set_label(self, label: str) -> None:
        """Name the kernel that subsequent activity is charged to."""
        self.label = label
        self._current = None
        if self.machine.trace is not None:
            self.machine.trace.add(self.sim.now, self.rank, label, "phase")

    def _counters(self) -> KernelCounters:
        c = self.counters.get(self.label)
        if c is None:
            c = self.counters[self.label] = KernelCounters()
        self._current = c
        return c

    # -- work --------------------------------------------------------------

    def compute_seconds(self, flops: float, jitter: bool = True) -> float:
        """Account ``flops`` of computation; return the (jittered) seconds.

        Does not advance simulated time — combine the returned seconds into
        a single ``sim.timeout`` (or use :meth:`work`). Splitting accounting
        from waiting lets pipelined kernels charge per-plane compute while
        keeping the engine event count low.
        """
        if flops < 0:
            raise SimulationError(f"negative flops {flops!r}")
        seconds = flops * self._flop_time
        if jitter:
            seconds *= self._noise.factor()
            seconds += self._noise.floor_jitter(self._noise_floor)
        c = self._current or self._counters()
        c.compute_time += seconds
        c.flops += flops
        return seconds

    def touch_regions(
        self, regions: Sequence[tuple[DataRegion, Optional[int], bool]]
    ) -> float:
        """Stream through ``regions``; account and return the memory seconds.

        ``regions`` is a sequence of ``(region, nbytes_or_None, write)``.
        Residency is updated immediately (at the *current* simulated time),
        which is the intended semantics: a kernel's data is considered hot
        as soon as the kernel runs.
        """
        mem_time = 0.0
        c = self._current or self._counters()
        memory = self.memory
        for region, nbytes, write in regions:
            time, _, from_memory, total = memory.touch(region, nbytes, write)
            mem_time += time
            c.bytes_touched += total
            c.bytes_from_memory += from_memory
        c.memory_time += mem_time
        return mem_time

    def work(
        self,
        flops: float = 0.0,
        regions: Sequence[tuple[DataRegion, Optional[int], bool]] = (),
        jitter: bool = True,
    ) -> Event:
        """One unit of local work: ``flops`` plus streaming the ``regions``.

        Returns a single engine event that fires when the work is done; the
        compute part is scaled by this rank's jitter stream (unless
        ``jitter=False``, used by the harness's calibration runs).
        """
        compute = self.compute_seconds(flops, jitter)
        mem_time = self.touch_regions(regions)
        if self.machine.trace is not None:
            self.machine.trace.add(
                self.sim.now, self.rank, self.label, "compute",
                {"flops": flops, "mem_time": mem_time},
            )
        return self.sim.timeout(compute + mem_time)

    # -- accounting hooks used by simmpi ------------------------------------

    def account_send(self, nbytes: int) -> None:
        c = self._current or self._counters()
        c.messages_sent += 1
        c.bytes_sent += nbytes

    def account_wait(self, seconds: float) -> None:
        if seconds > 0:
            (self._current or self._counters()).wait_time += seconds


class Machine:
    """One simulated run of a parallel machine.

    Parameters
    ----------
    config:
        Hardware description (see :mod:`repro.simmachine.machine`).
    nprocs:
        Number of ranks; must not exceed ``config.max_procs``.
    seed:
        Base seed for the noise model.
    run_id:
        Distinguishes noise streams between runs of the same seed (the
        measurement harness uses one id per repetition).
    trace:
        Event tracing control: ``False`` (off, the default), ``True``
        (unbounded trace — debugging only), an ``int`` N (bounded ring
        buffer of the newest N records, safe for long campaigns), or an
        existing :class:`Trace` to append into.
    """

    def __init__(
        self,
        config: MachineConfig,
        nprocs: int,
        seed: int = 0,
        run_id: str = "run",
        trace: Union[bool, int, Trace] = False,
    ) -> None:
        if nprocs < 1:
            raise ConfigurationError(f"nprocs must be >= 1, got {nprocs}")
        if nprocs > config.max_procs:
            raise ConfigurationError(
                f"machine {config.name!r} has {config.max_procs} procs, "
                f"requested {nprocs}"
            )
        self.config = config
        self.nprocs = nprocs
        self.seed = seed
        self.run_id = run_id
        self.sim = Simulator()
        self.network = NetworkModel(config.network, nprocs)
        proc = config.processor
        level_specs = [
            (lv.name, lv.capacity_bytes, lv.byte_time) for lv in proc.cache_levels
        ]
        self.memories = [
            MemoryHierarchy(level_specs, proc.memory_byte_time, proc.write_factor)
            for _ in range(nprocs)
        ]
        noise = NoiseModel(seed, config.noise_cv)
        self.noise_streams = [noise.rank_stream(run_id, r) for r in range(nprocs)]
        if isinstance(trace, Trace):
            self.trace: Optional[Trace] = trace
        elif trace is True:
            self.trace = Trace()
        elif isinstance(trace, int) and not isinstance(trace, bool) and trace > 0:
            self.trace = Trace(max_records=trace)
        else:
            self.trace = None
        self._flushed: dict[str, int] = {}
        self.contexts = [RankContext(self, r) for r in range(nprocs)]

    # -- running programs ----------------------------------------------------

    def launch(self, program: ProgramFn, name: str = "rank") -> list[Process]:
        """Start ``program`` on every rank; returns the rank processes."""
        return [
            self.sim.process(program(ctx), name=f"{name}{ctx.rank}")
            for ctx in self.contexts
        ]

    def run(self, program: ProgramFn, name: str = "rank") -> float:
        """Launch on all ranks, run to completion, return elapsed sim time.

        When observability is enabled, the run's event/message/cache/noise
        totals are flushed into the global obs registry afterwards — one
        lock acquisition per counter per *run*, never per event, so the
        hot simulation loop stays uninstrumented. The same discipline
        applies to profiling: one ``obs.tag`` per run (a single pointer
        check when no profiler is installed, REP009) labels every sample
        taken inside the engine loop with the simulated program's name.
        """
        start = self.sim.now
        events_before = self.sim.events_processed
        procs = self.launch(program, name)
        with obs.tag(f"sim.run:{name}"):
            self.sim.run_all(procs)
        if obs.enabled():
            self._flush_obs(events_before)
        return self.sim.now - start

    def _flush_obs(self, events_before: int) -> None:
        """Accumulate this run's activity totals into the obs registry.

        Machine/network/noise totals stay monotone (nothing here mutates
        them); repeat runs on one machine flush only their delta via the
        remembered ``_flushed`` watermarks.
        """
        registry = obs.get_registry()
        totals = {
            "sim_messages": self.network.messages_sent,
            "sim_message_bytes": self.network.bytes_sent,
            "sim_cache_bytes_hit": sum(m.bytes_hit for m in self.memories),
            "sim_cache_bytes_missed": sum(
                m.bytes_from_memory for m in self.memories
            ),
            "sim_noise_draws": sum(s.draws for s in self.noise_streams),
        }
        registry.counter("sim_runs").inc()
        registry.counter("sim_events").inc(
            self.sim.events_processed - events_before
        )
        for name, total in totals.items():
            registry.counter(name).inc(total - self._flushed.get(name, 0))
        self._flushed = totals
        registry.histogram("sim_simulated_seconds").observe(self.sim.now)
        if self.trace is not None:
            registry.counter("sim_trace_records").inc(len(self.trace))
            registry.counter("sim_trace_dropped").inc(self.trace.dropped)

    # -- state management (measurement harness) ------------------------------

    def flush_memory(self) -> None:
        """Cold caches on every rank."""
        for memory in self.memories:
            memory.flush()

    def drain_network(self) -> None:
        """Forget the network contention backlog."""
        self.network.drain()

    def counters_for(self, label: str) -> KernelCounters:
        """Aggregate counters for one label across all ranks."""
        total = KernelCounters()
        for ctx in self.contexts:
            c = ctx.counters.get(label)
            if c is not None:
                total.merge(c)
        return total

    def all_labels(self) -> list[str]:
        """Labels that accumulated any activity, sorted."""
        labels: set[str] = set()
        for ctx in self.contexts:
            labels.update(ctx.counters)
        return sorted(labels)

"""Minimal, fast discrete-event simulation core.

The design follows the classic process-interaction style (as popularised by
SimPy) but is trimmed to exactly what the simulated machine needs, because
large experiments push millions of events through this queue:

* :class:`Event` — one-shot triggerable occurrence with callbacks;
* :class:`Timeout` — event scheduled a fixed delay in the future;
* :class:`Process` — a Python generator that ``yield``\\ s events and is
  resumed when they fire; a process is itself an event that triggers on
  completion with the generator's return value;
* :class:`Simulator` — the event queue and clock.

Determinism: ties in time are broken by an insertion sequence number, so a
simulation is bit-for-bit reproducible for a given seed.

Deadlock: when the queue drains while processes are still alive,
:class:`repro.errors.DeadlockError` is raised naming the blocked processes —
this turns hung message-matching bugs into crisp test failures.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro import faults
from repro.errors import DeadlockError, SimulationError

__all__ = ["Event", "Timeout", "Process", "Simulator"]

_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; :meth:`succeed` (or :meth:`fail`) schedules it
    on the simulator's queue at the current time; when the queue reaches it,
    it becomes *processed* and its callbacks run. Each callback receives the
    event itself.

    Waiter storage is optimized for the overwhelmingly common case of a
    single waiter (a process ``yield``\\ ing the event): the first callback
    lives in the ``_cb`` slot and no list is allocated unless a second
    waiter registers (``callbacks`` stays ``None`` for most events).
    """

    __slots__ = ("sim", "_cb", "callbacks", "_value", "_exc", "processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._cb: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self.processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and sits on (or left) the queue."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def value(self) -> Any:
        """The value the event fired with (only valid once triggered)."""
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError("event triggered twice")
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now, seq, self))
        return self

    def trigger_at(self, value: Any, delay: float) -> "Event":
        """Trigger with ``value`` after ``delay`` seconds (message arrival)."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError("event triggered twice")
        if delay < 0:
            raise SimulationError(f"negative trigger delay {delay!r}")
        self._value = value
        sim = self.sim
        scale = sim._delay_scale
        if scale != 1.0:
            delay *= scale
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now + delay, seq, self))
        return self

    def trigger_at_time(self, value: Any, when: float) -> "Event":
        """Trigger with ``value`` at absolute time ``max(when, now)``.

        Scheduling at ``when`` itself rather than at ``now + (when - now)``
        keeps a message's completion exactly at its arrival time (the
        relative form can round one ulp off). While a ``sim.run.noise``
        burst stretches delays, the relative path applies the stretch.
        """
        sim = self.sim
        now = sim.now
        if sim._delay_scale != 1.0:
            return self.trigger_at(value, max(0.0, when - now))
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError("event triggered twice")
        self._value = value
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (when if when > now else now, seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to throw into waiters."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self._exc = exc
        self._value = None
        self.sim._schedule(self, 0.0)
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event is processed.

        If the event was already processed the callback runs immediately —
        this lets a process ``yield`` an event that fired in the past.
        """
        if self.processed:
            cb(self)
        elif self._cb is None:
            self._cb = cb
        elif self.callbacks is None:
            self.callbacks = [cb]
        else:
            self.callbacks.append(cb)


class Timeout(Event):
    """Event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        # Allocation-light fast path: set every slot directly and push the
        # heap entry inline — this constructor runs once per simulated
        # timeout and dominates compute-kernel event traffic.
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.sim = sim
        self._cb = None
        self.callbacks = None
        self._value = value
        self._exc = None
        self.processed = False
        scale = sim._delay_scale
        if scale != 1.0:
            delay *= scale
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now + delay, seq, self))


class Process(Event):
    """Drives a generator of events; completes with the generator's return.

    The generator may ``yield`` any :class:`Event`; it resumes with the
    event's value (or has the event's exception thrown into it).
    """

    __slots__ = ("name", "_gen", "_resume_cb")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Event, Any, Any],
        name: str = "process",
    ) -> None:
        super().__init__(sim)
        if not isinstance(gen, Generator):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__} "
                f"(did you call a plain function?)"
            )
        self.name = name
        self._gen = gen
        # One bound method reused for every resume — rebinding self._resume
        # per yielded event would allocate a method object each time.
        self._resume_cb = self._resume
        sim._alive.add(self)
        # Kick off at the current time so process start order is
        # deterministic and time-consistent.
        start = Timeout(sim, 0.0)
        start._cb = self._resume_cb

    def _resume(self, event: Event) -> None:
        try:
            if event._exc is not None:
                target = self._gen.throw(event._exc)
            else:
                # event is always triggered here; skip the `value` property's
                # defensive check on this per-event path.
                target = self._gen.send(event._value)
        except StopIteration as stop:
            self.sim._alive.discard(self)
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.sim._alive.discard(self)
            self.fail(exc)
            raise
        # Inlined single-waiter add_callback: the yielded event almost never
        # has another waiter, and this resume step runs once per event.
        if isinstance(target, Event):
            if target.processed:
                self._resume(target)
            elif target._cb is None:
                target._cb = self._resume_cb
            else:
                target.add_callback(self._resume_cb)
            return
        self.sim._alive.discard(self)
        exc = SimulationError(
            f"process {self.name!r} yielded {type(target).__name__}, "
            "expected an Event"
        )
        self.fail(exc)
        raise exc


class Simulator:
    """Event queue and simulated clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._alive: set[Process] = set()
        self.events_processed = 0
        # Fault injection ("sim.run.noise") scales every event delay to
        # model a machine-wide noise burst; 1.0 outside chaos runs.
        self._delay_scale = 1.0

    # -- scheduling -------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if self._delay_scale != 1.0:
            delay *= self._delay_scale
        self._seq += 1
        heappush(self._queue, (self.now + delay, self._seq, event))

    def event(self) -> Event:
        """Create a fresh pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, gen: Generator[Event, Any, Any], name: str = "process"
    ) -> Process:
        """Start a new process driving ``gen``."""
        return Process(self, gen, name)

    # -- execution --------------------------------------------------------

    def run(self) -> float:
        """Run until the queue drains.

        Returns the final clock value. Raises :class:`DeadlockError` if the
        queue drains while processes are still alive, and
        :class:`SimulationError` if a process crashed.
        """
        if faults.check("sim.run.error") is not None:
            raise SimulationError("injected simulator fault (sim.run.error)")
        burst = faults.check("sim.run.noise")
        if burst is not None and burst.param > 0:
            self._delay_scale = burst.param
        # Hot loop: it retires every event of every simulation, so event
        # processing is inlined here rather than paid as a method call per
        # event.
        queue = self._queue
        while queue:
            time, _seq, event = heappop(queue)
            self.now = time
            self.events_processed += 1
            event.processed = True
            cb = event._cb
            if cb is not None:
                event._cb = None
                cb(event)
            callbacks = event.callbacks
            if callbacks is not None:
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
        if self._alive:
            raise DeadlockError(sorted(p.name for p in self._alive))
        return self.now

    def run_all(self, processes: Iterable[Process]) -> list[Any]:
        """Run to completion and return each process's return value."""
        procs = list(processes)
        self.run()
        out = []
        for p in procs:
            if p._exc is not None:
                raise SimulationError(
                    f"process {p.name!r} failed: {p._exc!r}"
                ) from p._exc
            out.append(p.value)
        return out

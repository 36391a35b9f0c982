"""Request coalescing: single-flight deduplication + config batching.

Only requests the engine could not answer on the request thread get here:
L1 hits and fully archived cells never do, so the collection window (and
the ``batches``/``batch_size`` metrics) covers requests that simulate.

Two distinct ideas live here:

* **Single-flight** — while a request key is being computed, every further
  identical request attaches to the same :class:`~concurrent.futures.Future`
  instead of triggering its own simulation. The registry spans the whole
  in-flight window (queued *and* executing), so N concurrent identical
  requests cost exactly one cell execution.
* **Batching** — distinct requests that arrive within the collection
  ``window`` are grouped by their configuration key
  (benchmark, class, nprocs, seed) and dispatched as *one* cell run,
  sharing the runner warm-up (the empty-loop overhead measurement) and
  the memo store's measurement records across chain lengths.

The batcher owns one daemon dispatcher thread; the dispatch callable (the
engine) is invoked on that thread with each group and must not block
indefinitely.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Protocol

from repro import faults
from repro.errors import InjectedFaultError, ServiceClosedError
from repro.obs.tracing import correlation_id, current_context

__all__ = ["Flight", "RequestBatcher"]


class BatchableRequest(Protocol):
    """What the batcher needs from a request object."""

    @property
    def key(self) -> Hashable: ...

    @property
    def config_key(self) -> Hashable: ...


@dataclass
class Flight:
    """One unique in-flight request and everyone waiting on it.

    ``context`` and ``corr`` are the submitting thread's span context and
    correlation ID (captured at submit time) so the dispatcher/worker
    spans join the same trace as the request that started the flight.
    """

    request: BatchableRequest
    future: Future = field(default_factory=Future)
    waiters: int = 1
    context: object = None
    corr: object = None


class RequestBatcher:
    """Coalesce and batch requests onto a dispatch callable.

    ``dispatch(flights)`` receives one config-homogeneous group per call.
    Flights stay registered (and coalescable) until their future resolves;
    resolution is the dispatcher's/engine's job.

    ``max_batch`` is a flush threshold: once that many flights are
    pending, the dispatcher skips the remaining collection window and
    flushes immediately — bounding per-request queueing delay under heavy
    bursts (the window only exists to *grow* batches; a full batch has
    nothing to wait for).
    """

    def __init__(
        self,
        dispatch: Callable[[list[Flight]], None],
        window: float = 0.005,
        sleep: Callable[[float], None] = time.sleep,
        max_batch: Optional[int] = None,
    ):
        if window < 0:
            raise ValueError(f"batch window must be >= 0, got {window}")
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._dispatch = dispatch
        self.window = window
        self.max_batch = max_batch
        self._sleep = sleep
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: list[Flight] = []
        self._live: dict[Hashable, Flight] = {}
        self._closed = False
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-batcher", daemon=True
        )
        self._thread.start()

    # -- client side ----------------------------------------------------------

    def submit(self, request: BatchableRequest) -> tuple[Future, bool]:
        """Register a request; returns ``(future, coalesced)``.

        ``coalesced`` is True when an identical request was already in
        flight and this one attached to it (single-flight hit).
        """
        key = request.key
        with self._wakeup:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            flight = self._live.get(key)
            if flight is not None:
                flight.waiters += 1
                return flight.future, True
            flight = Flight(
                request=request,
                context=current_context(),
                corr=correlation_id(),
            )
            flight.future.add_done_callback(
                lambda _fut, key=key: self._forget(key)
            )
            self._live[key] = flight
            self._queue.append(flight)
            self._wakeup.notify()
            return flight.future, False

    def in_flight(self, key: Hashable) -> bool:
        """Whether this key is currently queued or executing."""
        with self._lock:
            return key in self._live

    @property
    def pending(self) -> int:
        """Flights collected but not yet dispatched."""
        with self._lock:
            return len(self._queue)

    def _forget(self, key: Hashable) -> None:
        with self._lock:
            self._live.pop(key, None)

    # -- dispatcher side ------------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closed:
                    # The timeout is belt-and-braces deadlock hygiene: a
                    # lost notify costs one period, not a wedged dispatcher.
                    self._wakeup.wait(timeout=1.0)
                if self._closed and not self._queue:
                    return
            # Collection window: let concurrent callers pile in before
            # grouping, so bursts become batches instead of singletons.
            # A full batch (>= max_batch pending) flushes immediately.
            if self.window and not self._flush_ready():
                self._sleep(self.window)
            with self._lock:
                batch, self._queue = self._queue, []
            for group in self._group(batch):
                try:
                    if faults.check("batch.dispatch.error") is not None:
                        raise InjectedFaultError(
                            "injected dispatch failure (batch.dispatch.error)"
                        )
                    self._dispatch(group)
                except BaseException as exc:  # noqa: BLE001 — relay to waiters
                    for flight in group:
                        if not flight.future.done():
                            flight.future.set_exception(exc)

    def _flush_ready(self) -> bool:
        """Whether the pending queue already justifies an immediate flush."""
        if self.max_batch is None:
            return False
        with self._lock:
            return len(self._queue) >= self.max_batch

    @staticmethod
    def _group(flights: list[Flight]) -> list[list[Flight]]:
        """Config-homogeneous groups, preserving arrival order."""
        groups: "OrderedDict[Hashable, list[Flight]]" = OrderedDict()
        for flight in flights:
            groups.setdefault(flight.request.config_key, []).append(flight)
        return list(groups.values())

    # -- lifecycle ------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop the dispatcher; fail anything still queued."""
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            leftovers, self._queue = self._queue, []
            self._wakeup.notify()
        for flight in leftovers:
            if not flight.future.done():
                flight.future.set_exception(
                    ServiceClosedError("service shut down before dispatch")
                )
        self._thread.join(timeout=timeout)

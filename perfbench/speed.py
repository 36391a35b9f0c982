"""Host-speed normalisation of end-to-end timings.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within a minute (other tenants' load), which would swamp any regression
bound. A fixed, benchmark-owned calibration kernel — a tiny pure-Python
event loop over generators, a heap and dicts, the same kind of work the
simulator and the serving path do — is timed between segments of the
work. Each segment's host time is scaled by ``REFERENCE_S / calibration``,
with the calibration taken as the mean of the probes on either side of
it. Reported times are therefore host seconds at a fixed reference speed.
The kernel never touches the program, so a change to the program moves
the normalised times exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Seconds of one kernel run at the reference host speed (roughly one run
#: on an otherwise idle 2-vCPU x86-64 VM under CPython 3.11).
REFERENCE_S = 2.6e-3
KERNEL_RANKS = 75
KERNEL_STEPS = 40
PROBE_RUNS = 8


def kernel() -> float:
    """One calibration run; returns its host seconds."""
    start = time.perf_counter()
    queue: list = []
    boxes: dict = {}

    def rank(r: int):
        total = 0.0
        for i in range(KERNEL_STEPS):
            delay = yield ((r * 7 + i * 13) % 17) * 1e-3 + 1e-4
            key = (r, i & 7)
            boxes[key] = boxes.get(key, 0) + 1
            total += delay
        return total

    seq = 0
    for process in [rank(r) for r in range(KERNEL_RANKS)]:
        seq += 1
        heapq.heappush(queue, (0.0, seq, process, None))
    while queue:
        now, _, process, value = heapq.heappop(queue)
        try:
            delay = process.send(value)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, (now + delay, seq, process, delay))
    return time.perf_counter() - start


def probe() -> float:
    """Mean kernel time over back-to-back runs (about 25 ms in all).

    The cyclic garbage collector is off meanwhile: a collection would
    scan the whole process heap, whose size depends on the workload.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.fmean(kernel() for _ in range(PROBE_RUNS))
    finally:
        if enabled:
            gc.enable()


class Normaliser:
    """Scales operation times by the host speed probed around them.

    An operation is timed in segments (:meth:`segment`). At a boundary
    between segments or operations (:meth:`boundary`, :meth:`end_op`), once
    ``every`` host seconds of segments have passed, it probes and scales the
    segments since the previous probe by the mean of the two probes.
    :meth:`close` returns each operation's normalised time, in order.
    """

    def __init__(self, every: float = 0.0) -> None:
        self.every = every
        self.probes: list[float] = [probe()]
        #: Normalised time of every operation; the last one is still open.
        self._totals: list[float] = [0.0]
        self._pending: list[tuple[int, float]] = []
        self._since = 0.0

    def segment(self, seconds: float) -> None:
        self._pending.append((len(self._totals) - 1, seconds))
        self._since += seconds

    def boundary(self) -> None:
        if self._pending and self._since >= self.every:
            self._flush()

    def end_op(self) -> None:
        self.boundary()
        self._totals.append(0.0)

    def _flush(self) -> None:
        self.probes.append(probe())
        factor = REFERENCE_S / statistics.fmean(self.probes[-2:])
        for index, seconds in self._pending:
            self._totals[index] += seconds * factor
        self._pending = []
        self._since = 0.0

    def close(self) -> list[float]:
        if self._pending:
            self._flush()
        return self._totals[:-1]

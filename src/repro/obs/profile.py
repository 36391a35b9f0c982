"""Low-overhead sampling profiler with span/tag attribution.

Where :mod:`repro.obs.tracing` answers "how long did each *stage* take"
(explicit spans), this module answers "where inside a stage does the time
actually go" — by periodically sampling Python call stacks and counting
how often each stack is on-CPU. Sampling keeps the disabled cost at
literally one ``is None`` check per span (the guard the overhead benchmark
pins below 5 %), and the enabled cost proportional to the sampling rate,
not to the workload's call volume.

Two backends:

* ``signal`` — ``setitimer(ITIMER_PROF)`` + a ``SIGPROF`` handler. CPU-time
  driven (sleeping code is never charged), near-zero overhead, but POSIX
  main-thread only and it samples only the main thread.
* ``thread`` — a daemon sampler thread walking ``sys._current_frames()``.
  Works everywhere (worker pools, TCP handler threads) and sees *every*
  thread; wall-clock driven.

``backend="auto"`` picks ``signal`` when it can and falls back to
``thread``. The per-test SIGALRM timeout fixture and the signal backend
coexist because the profiler deliberately uses ``SIGPROF``.

Attribution is three-way per sample:

1. the Python frame stack (``module:function`` segments);
2. the active :mod:`repro.obs` **span stack** of the sampled thread — the
   tracer registers open span names through :func:`_span_push` /
   :func:`_span_pop` only while a profiler is installed;
3. coarse **tags** (:func:`tag`) for regions that must stay span-free —
   the simulator's run loop tags itself so flamegraphs separate simulated
   applications without paying span cost per event (REP009).

Profiles are plain data (:class:`ProfileData`): mergeable across workers
exactly like the PR 5 counter deltas (each
:class:`~repro.parallel.worker.CellResult` carries its worker's profile
dict, the executor absorbs it into the parent's active profiler), and
exportable as collapsed stacks (flamegraph.pl / speedscope / inferno) or
Chrome-trace sample events.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from collections import deque
from typing import Any, Iterator, Optional

__all__ = [
    "ProfileData",
    "SamplingProfiler",
    "active",
    "start",
    "stop",
    "tag",
    "merge_child_profile",
]

#: Hard ceiling on recorded stack depth (deeper frames are folded into a
#: ``...`` segment, keeping pathological recursion bounded).
MAX_STACK_DEPTH = 64

#: Default distinct-stack ceiling; once reached, new stacks fold into the
#: synthetic ``(TRUNCATED,)`` bucket so memory stays O(max_stacks).
DEFAULT_MAX_STACKS = 20_000

TRUNCATED = "<truncated>"

#: Frames from these modules are the profiler observing itself; skipped.
_SELF_MODULES = ("repro.obs.profile",)


def _frame_label(frame) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    name = getattr(code, "co_qualname", None) or code.co_name
    return f"{module}:{name}"


def _walk_stack(frame) -> tuple[str, ...]:
    """Root-first ``module:function`` labels for one frame chain."""
    labels: list[str] = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        module = frame.f_globals.get("__name__", "?")
        if not module.startswith(_SELF_MODULES):
            labels.append(_frame_label(frame))
        frame = frame.f_back
        depth += 1
    if frame is not None:
        labels.append(TRUNCATED)
    labels.reverse()
    return tuple(labels)


class ProfileData:
    """Aggregated samples: stack -> hit count, plus span/tag attribution.

    A pure value object — no live frames, no locks required by consumers —
    so it pickles cleanly across the process-pool boundary and merges
    associatively (``a.merge(b)`` is order-independent on counts), the same
    contract the obs counter deltas follow.
    """

    SCHEMA = 1

    def __init__(self, interval: float):
        if interval <= 0:
            raise ValueError(f"sampling interval must be > 0, got {interval}")
        self.interval = interval
        self.samples: dict[tuple[str, ...], int] = {}
        self.span_samples: dict[tuple[str, ...], int] = {}
        self.sample_count = 0
        self.duration = 0.0
        self.truncated = 0
        #: Bounded raw timeline for the Chrome-trace exporter:
        #: (offset_seconds, thread_id, stack) tuples, newest kept.
        self.timeline: deque = deque(maxlen=2_000)

    # -- recording --------------------------------------------------------

    def record(
        self,
        stack: tuple[str, ...],
        spans: tuple[str, ...],
        offset: float,
        thread_id: int,
        max_stacks: int = DEFAULT_MAX_STACKS,
    ) -> None:
        self.sample_count += 1
        if stack not in self.samples and len(self.samples) >= max_stacks:
            stack = (TRUNCATED,)
            self.truncated += 1
        self.samples[stack] = self.samples.get(stack, 0) + 1
        if spans:
            self.span_samples[spans] = self.span_samples.get(spans, 0) + 1
        self.timeline.append((offset, thread_id, stack))

    def merge(self, other: "ProfileData") -> None:
        """Fold another profile (e.g. a worker's) into this one."""
        for stack, count in other.samples.items():
            self.samples[stack] = self.samples.get(stack, 0) + count
        for spans, count in other.span_samples.items():
            self.span_samples[spans] = (
                self.span_samples.get(spans, 0) + count
            )
        self.sample_count += other.sample_count
        self.duration = max(self.duration, other.duration)
        self.truncated += other.truncated

    # -- analysis ---------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Estimated self time per frame label (leaf-of-stack attribution)."""
        out: dict[str, float] = {}
        for stack, count in self.samples.items():
            if not stack:
                continue
            leaf = stack[-1]
            out[leaf] = out.get(leaf, 0.0) + count * self.interval
        return out

    def cumulative_seconds(self) -> dict[str, float]:
        """Estimated cumulative time per frame label (anywhere-on-stack).

        Recursive frames count once per sample (set semantics), so a
        function's cumulative time never exceeds the profile duration.
        """
        out: dict[str, float] = {}
        for stack, count in self.samples.items():
            for label in set(stack):
                out[label] = out.get(label, 0.0) + count * self.interval
        return out

    def span_seconds(self) -> dict[str, float]:
        """Estimated time attributed to each span/tag name (innermost)."""
        out: dict[str, float] = {}
        for spans, count in self.span_samples.items():
            leaf = spans[-1]
            out[leaf] = out.get(leaf, 0.0) + count * self.interval
        return out

    def collapsed(self, kind: str = "frames") -> str:
        """Collapsed-stack flamegraph text (``a;b;c <count>`` lines).

        ``kind="frames"`` renders the Python stacks, ``kind="spans"`` the
        span/tag stacks. Feed the output to ``flamegraph.pl`` or paste it
        into https://www.speedscope.app.
        """
        if kind == "frames":
            table = self.samples
        elif kind == "spans":
            table = self.span_samples
        else:
            raise ValueError(f"kind must be frames|spans, got {kind!r}")
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(table.items())
            if stack
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def chrome_trace(self) -> dict:
        """Chrome-trace document of the retained sample timeline.

        Each retained sample becomes one complete ("X") slice of one
        sampling interval on ``pid=3`` ("profiler"), one track per
        sampled thread, named by the leaf frame with the full stack in
        ``args`` — loadable in Perfetto next to the span timeline.
        """
        events: list[dict] = [
            {
                "ph": "M",
                "ts": 0,
                "pid": 3,
                "tid": 0,
                "name": "process_name",
                "args": {"name": "profiler"},
            }
        ]
        thread_ids: dict[int, int] = {}
        for offset, raw_tid, stack in self.timeline:
            tid = thread_ids.setdefault(raw_tid, len(thread_ids) + 1)
            events.append(
                {
                    "ph": "X",
                    "ts": max(offset, 0.0) * 1e6,
                    "dur": self.interval * 1e6,
                    "pid": 3,
                    "tid": tid,
                    "name": stack[-1] if stack else "<idle>",
                    "cat": "sample",
                    "args": {"stack": ";".join(stack)},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.SCHEMA,
            "interval": self.interval,
            "sample_count": self.sample_count,
            "duration": self.duration,
            "truncated": self.truncated,
            "samples": [
                {"stack": list(stack), "count": count}
                for stack, count in sorted(self.samples.items())
            ],
            "span_samples": [
                {"stack": list(stack), "count": count}
                for stack, count in sorted(self.span_samples.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileData":
        if data.get("schema") != cls.SCHEMA:
            raise ValueError(
                f"unsupported profile schema {data.get('schema')!r}"
            )
        profile = cls(interval=float(data["interval"]))
        profile.sample_count = int(data.get("sample_count", 0))
        profile.duration = float(data.get("duration", 0.0))
        profile.truncated = int(data.get("truncated", 0))
        for item in data.get("samples", ()):
            profile.samples[tuple(item["stack"])] = int(item["count"])
        for item in data.get("span_samples", ()):
            profile.span_samples[tuple(item["stack"])] = int(item["count"])
        return profile


# -- the module-global profiler slot and its hot-path hooks -----------------

#: The installed profiler, or None. Every hook below starts with an
#: ``is None`` check against this slot — that check IS the disabled-path
#: overhead, and the profile benchmark holds it under 5 %.
_active: Optional["SamplingProfiler"] = None
_install_lock = threading.Lock()


def reset_after_fork() -> None:
    """Empty the profiler slot in a forked child (see obs.reset_after_fork)."""
    global _active, _install_lock
    _active = None
    _install_lock = threading.Lock()


def active() -> Optional["SamplingProfiler"]:
    """The currently installed profiler, if any."""
    return _active


def _span_push(thread_id: int, name: str) -> None:
    """Called by the tracer when a span opens (only while profiling)."""
    profiler = _active
    if profiler is not None:
        profiler._push(thread_id, name)


def _span_pop(thread_id: int) -> None:
    profiler = _active
    if profiler is not None:
        profiler._pop(thread_id)


class _TagScope:
    """Context manager pushing a tag for the current thread (cheap no-op
    while no profiler is installed)."""

    __slots__ = ("_name", "_pushed")

    def __init__(self, name: str):
        self._name = name
        self._pushed = False

    def __enter__(self) -> "_TagScope":
        profiler = _active
        if profiler is not None:
            profiler._push(threading.get_ident(), self._name)
            self._pushed = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._pushed:
            # Pop against the *current* profiler: if profiling stopped
            # inside the scope the stacks were already discarded.
            profiler = _active
            if profiler is not None:
                profiler._pop(threading.get_ident())
        return False


def tag(name: str) -> _TagScope:
    """Attribute samples inside the scope to ``name`` without a span.

    The span-free sibling of ``obs.span`` for hot regions (the simulator
    run loop): one ``is None`` check when profiling is off, a list
    append/pop when it is on — never a Span object, never a histogram.
    """
    return _TagScope(name)


class SamplingProfiler:
    """Periodic stack sampler; start/stop or use as a context manager.

    ``interval`` is the sampling period in seconds (default 5 ms — ~200
    samples/s, far below the cost of instrumenting calls). ``backend`` is
    ``"auto"`` | ``"signal"`` | ``"thread"`` (see the module docstring).
    Only one profiler can be installed per process at a time.
    """

    def __init__(
        self,
        interval: float = 0.005,
        backend: str = "auto",
        max_stacks: int = DEFAULT_MAX_STACKS,
    ):
        if interval <= 0:
            raise ValueError(f"sampling interval must be > 0, got {interval}")
        if backend not in ("auto", "signal", "thread"):
            raise ValueError(
                f"backend must be auto|signal|thread, got {backend!r}"
            )
        self.requested_backend = backend
        self.backend = ""  # resolved at start()
        self.max_stacks = max_stacks
        self.data = ProfileData(interval)
        self._span_stacks: dict[int, list[str]] = {}
        # Re-entrant: the SIGPROF handler runs on the thread it interrupts,
        # which may be inside _push/_pop holding this lock.
        self._stacks_lock = threading.RLock()
        self._started_at = 0.0
        self._running = False
        self._sampler_thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._previous_handler: Any = None

    # -- span/tag stack bookkeeping (called via the module hooks) ---------

    def _push(self, thread_id: int, name: str) -> None:
        with self._stacks_lock:
            self._span_stacks.setdefault(thread_id, []).append(name)

    def _pop(self, thread_id: int) -> None:
        with self._stacks_lock:
            stack = self._span_stacks.get(thread_id)
            if stack:
                stack.pop()
                if not stack:
                    del self._span_stacks[thread_id]

    def _spans_of(self, thread_id: int) -> tuple[str, ...]:
        with self._stacks_lock:
            stack = self._span_stacks.get(thread_id)
            return tuple(stack) if stack else ()

    # -- lifecycle --------------------------------------------------------

    def _resolve_backend(self) -> str:
        if self.requested_backend == "thread":
            return "thread"
        can_signal = (
            hasattr(signal, "SIGPROF")
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        if self.requested_backend == "signal":
            if not can_signal:
                raise RuntimeError(
                    "signal backend needs SIGPROF/setitimer on the main "
                    "thread; use backend='thread'"
                )
            return "signal"
        return "signal" if can_signal else "thread"

    def start(self) -> "SamplingProfiler":
        global _active
        with _install_lock:
            if _active is not None:
                raise RuntimeError("a profiler is already installed")
            # Lifecycle state is serialized by the module _install_lock
            # (single profiler per process), not by _stacks_lock — that
            # one only guards the span stacks the hooks touch.
            self.backend = self._resolve_backend()  # repro: ignore[REP002]
            self._started_at = time.perf_counter()  # repro: ignore[REP002]
            self._running = True  # repro: ignore[REP002]
            _active = self
        if self.backend == "signal":
            self._previous_handler = signal.signal(  # repro: ignore[REP002]
                signal.SIGPROF, self._on_signal
            )
            signal.setitimer(
                signal.ITIMER_PROF, self.data.interval, self.data.interval
            )
        else:
            self._stop_event.clear()
            self._sampler_thread = threading.Thread(  # repro: ignore[REP002]
                target=self._sampler_loop,
                name="repro-profiler",
                daemon=True,
            )
            self._sampler_thread.start()
        return self

    def stop(self) -> ProfileData:
        global _active
        with _install_lock:
            if not self._running:
                return self.data
            self._running = False  # repro: ignore[REP002] — _install_lock
            if _active is self:
                _active = None
        if self.backend == "signal":
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            if self._previous_handler is not None:
                signal.signal(signal.SIGPROF, self._previous_handler)
        elif self._sampler_thread is not None:
            self._stop_event.set()
            self._sampler_thread.join(timeout=5.0)
            self._sampler_thread = None  # repro: ignore[REP002]
        self.data.duration = time.perf_counter() - self._started_at
        return self.data

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling ---------------------------------------------------------

    def _on_signal(self, signum, frame) -> None:
        if not self._running or frame is None:
            return
        tid = threading.get_ident()
        self.data.record(
            _walk_stack(frame),
            self._spans_of(tid),
            time.perf_counter() - self._started_at,
            tid,
            self.max_stacks,
        )

    def _sampler_loop(self) -> None:
        me = threading.get_ident()
        interval = self.data.interval
        while not self._stop_event.wait(interval):
            now = time.perf_counter() - self._started_at
            for tid, frame in sys._current_frames().items():
                if tid == me:
                    continue
                try:
                    stack = _walk_stack(frame)
                except AttributeError:
                    # The thread's frame chain changed under the walk
                    # (a link is no longer a frame): skip its sample for
                    # this tick rather than let the sampler thread die.
                    continue
                self.data.record(
                    stack,
                    self._spans_of(tid),
                    now,
                    tid,
                    self.max_stacks,
                )


def start(
    interval: float = 0.005, backend: str = "auto"
) -> SamplingProfiler:
    """Install and start a process-wide profiler (see ``repro profile run``)."""
    return SamplingProfiler(interval=interval, backend=backend).start()


def stop() -> Optional[ProfileData]:
    """Stop the installed profiler, returning its data (None when idle)."""
    profiler = _active
    if profiler is None:
        return None
    return profiler.stop()


def worker_interval() -> Optional[float]:
    """The sampling interval campaign workers should inherit, if profiling."""
    profiler = _active
    return profiler.data.interval if profiler is not None else None


def merge_child_profile(data: Optional[dict]) -> bool:
    """Absorb a worker's serialized profile into the active profiler.

    The profiler analogue of the executor's counter-delta merge: the child
    returns its whole profile as data, the parent folds it in. Returns
    whether anything was merged (False when no profiler is installed or
    the child did not profile).
    """
    profiler = _active
    if profiler is None or not data:
        return False
    profiler.data.merge(ProfileData.from_dict(data))
    return True


def _iter_stacks(data: ProfileData) -> Iterator[tuple[tuple[str, ...], int]]:
    """Testing/reporting helper: deterministic stack iteration order."""
    return iter(sorted(data.samples.items()))

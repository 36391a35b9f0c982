"""Span-based tracing with context propagation and correlation IDs.

A *span* is one timed stage of work (``with obs.span("campaign.run",
benchmark="BT"): ...``). Spans nest through a :mod:`contextvars` variable,
so the current span follows the logical request even across ``await``-less
thread handoffs when the parent context is captured explicitly:

* :func:`current_context` captures ``(trace_id, span_id)`` where a request
  leaves one thread;
* :func:`use_context` re-establishes it where the work resumes, so the
  spans recorded there join the same trace.

(:func:`contextvars.copy_context` does both at once for a task handed to
an executor, as the service's inline cell thread does.)

Every finished span is (1) appended to the process tracer's bounded ring
buffer (for the Chrome-trace exporter) and (2) recorded into the global
registry as a ``span_seconds{name=...}`` histogram (for ``repro metrics``
and the TCP ``metrics`` command).

Correlation IDs: :func:`correlation` pins an externally supplied request ID
(the wire protocol's ``"id"`` field) on the context; root spans adopt it as
their trace ID and :func:`repro.obs.logging.log` stamps it on every line.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple, Optional

from repro.obs import profile as _profile

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "span",
    "current_span",
    "current_context",
    "use_context",
    "correlation",
    "correlation_id",
]

_CURRENT: ContextVar[Optional["SpanContext"]] = ContextVar(
    "repro_obs_span", default=None
)
_CORRELATION: ContextVar[Optional[str]] = ContextVar(
    "repro_obs_correlation", default=None
)

_ids = itertools.count(1)


def _next_id(prefix: str) -> str:
    return f"{prefix}{next(_ids):x}"


class SpanContext(NamedTuple):
    """The propagatable identity of a span: which trace, which parent."""

    trace_id: str
    span_id: str


@dataclass(slots=True)
class Span:
    """One finished (or in-flight) timed stage."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start: float
    end: Optional[float] = None
    thread_id: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds from start to end (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)


class Tracer:
    """Bounded ring buffer of finished spans (oldest dropped first)."""

    def __init__(self, max_spans: int = 10_000):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._dropped = 0
        self._lock = threading.Lock()

    def record(self, finished: Span) -> None:
        with self._lock:
            if len(self._spans) == self.max_spans:
                self._dropped += 1
            self._spans.append(finished)

    def spans(self) -> list[Span]:
        """The retained spans, oldest first."""
        with self._lock:
            return list(self._spans)

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring buffer since the last clear."""
        return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())


@contextmanager
def correlation(corr_id: Optional[str]):
    """Bind an external request/correlation ID to the current context."""
    token = _CORRELATION.set(str(corr_id) if corr_id is not None else None)
    try:
        yield corr_id
    finally:
        _CORRELATION.reset(token)


def correlation_id() -> Optional[str]:
    """The correlation ID bound to the current context, if any."""
    return _CORRELATION.get()


def current_span() -> Optional[SpanContext]:
    """The context of the innermost open span, if any."""
    return _CURRENT.get()


def current_context() -> Optional[SpanContext]:
    """Capture the propagatable context (for cross-thread handoff)."""
    return _CURRENT.get()


@contextmanager
def use_context(context: Optional[SpanContext]):
    """Adopt a captured :class:`SpanContext` as the current parent."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)


# The obs package re-exports this module, so it cannot be imported at the
# top; it is resolved once on first use and cached.
_obs = None


def _obs_module():
    global _obs
    if _obs is None:
        from repro import obs

        _obs = obs
    return _obs


# Per-name span histogram cache: (registry, histogram), revalidated by
# registry identity so obs.reset() (a fresh registry) invalidates it.
_span_hists: dict[str, tuple] = {}


def _span_histogram(registry, name: str):
    cached = _span_hists.get(name)
    if cached is not None and cached[0] is registry:
        return cached[1]
    histogram = registry.histogram("span_seconds", labels={"name": name})
    _span_hists[name] = (registry, histogram)
    return histogram


class _SpanScope:
    """Hand-rolled context manager — the ``@contextmanager`` generator
    machinery costs a few microseconds per use, which matters on paths
    entered per request."""

    __slots__ = ("_name", "_attrs", "_span", "_token")

    def __init__(self, name: str, attrs: dict):
        self._name = name
        self._attrs = attrs
        self._span = None

    def __enter__(self) -> Optional[Span]:
        obs = _obs_module()
        if not obs.enabled():
            return None
        parent = _CURRENT.get()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = _CORRELATION.get() or _next_id("t")
            parent_id = None
        self._span = open_span = Span(
            name=self._name,
            trace_id=trace_id,
            span_id=_next_id("s"),
            parent_id=parent_id,
            start=time.perf_counter(),
            thread_id=threading.get_ident(),
            attrs=self._attrs,
        )
        self._token = _CURRENT.set(SpanContext(trace_id, open_span.span_id))
        # Profiler attribution: while a sampling profiler is installed,
        # tell it which span is active on this thread. The ``is None``
        # check is the entire disabled-path cost.
        if _profile._active is not None:
            _profile._span_push(open_span.thread_id, self._name)
        return open_span

    def __exit__(self, exc_type, exc, tb) -> bool:
        open_span = self._span
        if open_span is None:
            return False
        if _profile._active is not None:
            _profile._span_pop(open_span.thread_id)
        _CURRENT.reset(self._token)
        open_span.end = time.perf_counter()
        obs = _obs_module()
        obs.get_tracer().record(open_span)
        _span_histogram(obs.get_registry(), open_span.name).observe(
            open_span.duration
        )
        return False


def span(name: str, **attrs) -> _SpanScope:
    """Time a stage; record it in the tracer and the span histogram.

    Cheap no-op when observability is disabled (see
    :func:`repro.obs.disable`). The value yielded by ``with`` is the open
    :class:`Span` (or ``None`` when disabled), whose ``attrs`` may be
    extended before exit.
    """
    return _SpanScope(name, attrs)

"""Structured logging with span/correlation stamping.

``obs.log("serve.listening", host=host, port=port)`` emits one
``key=value`` line through the stdlib ``repro`` logger, automatically
stamped with the current correlation ID and trace/span IDs when present —
so a grep for one request's ID reconstructs its path through the client,
batcher, workers, and simulator. This replaces bare ``print`` calls in
long-running code paths (the service front-ends, the experiment runner);
one-shot CLI *output* stays on stdout.
"""

from __future__ import annotations

import logging
import sys
from typing import Any, Optional, TextIO

__all__ = ["log", "get_logger", "configure_logging"]

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

_configured = False


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted.

    Binding the object current at configure time would keep writing to it
    after it is replaced and closed (as test harnesses do with their
    capture streams), and every later record would fail.
    """

    def emit(self, record: logging.LogRecord) -> None:
        self.stream = sys.stderr
        super().emit(record)


def get_logger(name: str = "repro") -> logging.Logger:
    """The library logger (configure handlers via :func:`configure_logging`)."""
    return logging.getLogger(name)


def configure_logging(
    stream: Optional[TextIO] = None, level: int = logging.INFO
) -> logging.Logger:
    """Attach a plain line handler to the ``repro`` logger (idempotent).

    Without ``stream`` the handler writes to the ``sys.stderr`` current at
    each record, not the one current at this call. Library code never
    calls this implicitly with handlers attached — applications embedding
    :mod:`repro` keep full control of routing; the CLI front-ends call it
    so operators see the structured lines on stderr.
    """
    global _configured
    logger = get_logger()
    if not _configured:
        handler: logging.Handler = (
            _StderrHandler() if stream is None
            else logging.StreamHandler(stream)
        )
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
        logger.setLevel(level)
        _configured = True
    return logger


def _render_value(value: Any) -> str:
    text = str(value)
    if " " in text or "=" in text or '"' in text:
        escaped = text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return text


def log(event: str, level: str = "info", **fields: Any) -> None:
    """Emit one structured line: ``event key=value ...``.

    The current correlation ID (``corr=``) and open span (``trace=``,
    ``span=``) are stamped automatically when bound. No-op when
    observability is disabled.
    """
    from repro import obs
    from repro.obs.tracing import correlation_id, current_span

    if not obs.enabled():
        return
    stamped = dict(fields)
    corr = correlation_id()
    if corr is not None and "corr" not in stamped:
        stamped["corr"] = corr
    context = current_span()
    if context is not None:
        stamped.setdefault("trace", context.trace_id)
        stamped.setdefault("span", context.span_id)
    parts = [event] + [
        f"{key}={_render_value(value)}" for key, value in stamped.items()
    ]
    get_logger().log(_LEVELS.get(level, logging.INFO), " ".join(parts))

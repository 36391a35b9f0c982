"""Structured log lines and their correlation/span stamping."""

import io
import logging
import sys

from repro import obs
from repro.obs import logging as obs_logging


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def _capturing():
    handler = _Capture()
    logger = obs.get_logger()
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    return handler, logger


class TestLog:
    def test_event_and_fields(self):
        handler, logger = _capturing()
        try:
            obs.log("cache.evict", key="BT/S/4", reason="ttl expired")
        finally:
            logger.removeHandler(handler)
        (line,) = handler.lines
        assert line.startswith("cache.evict ")
        assert "key=BT/S/4" in line
        assert 'reason="ttl expired"' in line  # spaces force quoting

    def test_correlation_and_span_stamping(self):
        handler, logger = _capturing()
        try:
            with obs.correlation("req-7"), obs.span("stage") as current:
                obs.log("stage.done")
        finally:
            logger.removeHandler(handler)
        (line,) = handler.lines
        assert "corr=req-7" in line
        assert f"trace={current.trace_id}" in line
        assert f"span={current.span_id}" in line

    def test_disabled_logging_is_silent(self):
        handler, logger = _capturing()
        obs.disable()
        try:
            obs.log("should.not.appear")
        finally:
            obs.enable()
            logger.removeHandler(handler)
        assert handler.lines == []


class TestConfigureLogging:
    def test_default_stream_follows_sys_stderr(self, monkeypatch):
        """A stderr swapped out and closed after configuring is not written."""
        logger = obs.get_logger()
        monkeypatch.setattr(obs_logging, "_configured", False)
        monkeypatch.setattr(logger, "handlers", [])
        monkeypatch.setattr(logger, "level", logger.level)
        first, current = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stderr", first)
        obs.configure_logging()
        monkeypatch.setattr(sys, "stderr", current)
        first.close()

        obs.log("after.close", n=1)

        written = current.getvalue()
        assert written.splitlines() == ["after.close n=1"]
        assert "Logging error" not in written

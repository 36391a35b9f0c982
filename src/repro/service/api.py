"""The wire front-ends of the prediction service, and its one client.

Two front-ends serve a :class:`~repro.service.engine.PredictionService`
through :func:`handle_line`:

* :func:`serve_jsonl` — a JSON-lines request/response loop over any pair of
  text streams (the ``repro serve`` CLI runs it over stdin/stdout), for
  piping and load testing;
* :func:`serve_socket` — the same line protocol over TCP
  (``repro serve --port N``), one thread per connection.

:class:`LineClient` speaks that protocol over TCP and is the only client
that retries. In-process callers call
:meth:`~repro.service.engine.PredictionService.predict` directly (under
``obs.correlation(...)`` to tag the request), or :func:`handle_line` for
the wire form.

The line protocol: each input line is either a request object
(``{"benchmark": "BT", "problem_class": "W", "nprocs": 4, ...}``), an array
of request objects (answered as one response), or a command object
(``{"cmd": "stats"}``, ``{"cmd": "metrics"}`` — the ``GET /metrics``
analogue, answering a Prometheus text exposition plus a JSON snapshot of
every registry — ``{"cmd": "slo"}``, answering a rolling SLO judgement
with per-tier p50/p95/p99 and error-budget burn — or ``{"cmd":
"counters"}``, the raw read of every cumulative counter). Every line
gets exactly one JSON response line with an ``"ok"`` field; saturation
rejections carry ``"retry_after"``.

Correlation: any request object may carry an ``"id"`` field. It is echoed
verbatim in the response, bound as the obs correlation ID for the
request's spans, and stamped on the structured log lines — so one grep
ties a wire request to its dispatch, worker cell, and simulator runs.

Rendered replies: a request line is answered from its L1 entry
(:class:`~repro.service.cache.L1Entry`), which keeps the reply line
rendered for the entry's first answer, without ``"degraded"`` and
``"id"``. So an L1 hit is one parse, one lookup and one write:
:func:`handle_line` splices the per-exchange keys into the kept line
(the same bytes as encoding the whole reply dict) instead of rebuilding
and encoding the reply. Array lines are rendered item by item.
"""

from __future__ import annotations

import json
import random
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, TextIO

from repro import faults, obs
from repro.core.predictor import PredictionReport
from repro.errors import (
    ClientDisconnectError,
    ConfigurationError,
    ReproError,
    ServiceDegradedError,
    ServiceError,
    ServiceSaturatedError,
    WorkerCrashError,
)
from repro.service.engine import PredictRequest, PredictionService

__all__ = [
    "RetryPolicy",
    "LineClient",
    "report_to_dict",
    "error_dict",
    "metrics_payload",
    "slo_payload",
    "counters_payload",
    "handle_line",
    "serve_jsonl",
    "serve_socket",
]


def report_to_dict(
    request: PredictRequest,
    report: PredictionReport,
    degraded: bool = False,
) -> dict[str, Any]:
    """Wire form of one successful prediction.

    ``degraded=True`` flags a response served while the worker pool is
    unhealthy (a cache hit in cache-only mode) so clients can tell a
    possibly-stale answer from a fully healthy one.
    """
    payload = {
        "ok": True,
        "request": request.to_dict(),
        "actual": report.actual,
        "predictions": dict(report.predictions),
        "errors_percent": report.errors(),
        "best": report.best(),
        "tier": report.tier,
    }
    if degraded:
        payload["degraded"] = True
    return payload


def error_dict(exc: Exception) -> dict[str, Any]:
    """Wire form of one failed exchange (the error taxonomy on the wire)."""
    payload: dict[str, Any] = {
        "ok": False,
        "error": str(exc),
        "error_type": type(exc).__name__,
    }
    if isinstance(exc, ServiceSaturatedError):
        payload["retry_after"] = exc.retry_after
    if isinstance(exc, ServiceDegradedError):
        payload["degraded"] = True
    return payload


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + deterministic jitter.

    Governs how :meth:`LineClient.predict` retries *transient* wire errors
    — saturation rejections and worker crashes. Timeouts and
    degraded-mode rejections are **not** retried: a deadline already spent
    the caller's budget, and degraded mode will not heal within one
    backoff.

    The delay before retry ``k`` (1-based) is
    ``min(max_delay, base_delay * 2**(k-1))`` stretched by a jitter factor
    in ``[1, 1 + jitter]`` drawn from a ``seed``-keyed stream, except that
    a saturation rejection's ``retry_after`` hint takes precedence when it
    is larger.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays must be >= 0")
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")

    def delays(self) -> Iterable[float]:
        """The backoff sequence for one request (len == max_attempts - 1)."""
        rng = random.Random(self.seed)
        for attempt in range(1, self.max_attempts):
            delay = min(self.max_delay, self.base_delay * 2 ** (attempt - 1))
            yield delay * (1.0 + self.jitter * rng.random())


#: Wire ``error_type`` values :class:`LineClient` retries: the transient
#: failures. Every other error reply is final.
_TRANSIENT = (ServiceSaturatedError.__name__, WorkerCrashError.__name__)


class LineClient:
    """Synchronous JSONL/TCP client, the service's one retrying client.

    ``request`` is one exchange; it reconnects once if the server dropped
    the connection in between. ``predict`` retries transient error
    replies (saturation sheds, worker deaths) under a
    :class:`RetryPolicy`, honouring ``retry_after`` hints, logs each retry
    as ``client.retry``, and returns the last reply once attempts run out.
    ``sleep`` is injectable so tests can assert on the honoured backoff
    schedule without waiting.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 600.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.address = (host, port)
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        self._sock: Optional[socket.socket] = None
        self._file = None

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            self.address, timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")

    def request_line(self, line: str) -> dict[str, Any]:
        """One raw exchange; reconnects once on a dropped connection."""
        for attempt in (0, 1):
            if self._sock is None:
                self._connect()
            try:
                assert self._file is not None
                self._file.write(line.encode("utf-8") + b"\n")
                self._file.flush()
                raw = self._file.readline()
            except OSError:
                self.close()
                if attempt:
                    raise
                continue
            if raw:
                return json.loads(raw.decode("utf-8"))
            # EOF: the server closed on us; reconnect once.
            self.close()
            if attempt:
                raise ServiceError(
                    "server closed the connection without responding"
                )
        raise ServiceError(  # pragma: no cover — loop always returns/raises
            "unreachable"
        )

    def request(self, payload: Any) -> dict[str, Any]:
        """One exchange with a JSON payload (object, array, or command)."""
        return self.request_line(json.dumps(payload))

    def predict(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Request with retry: returns the final wire response dict."""
        delays = self.retry.delays()
        while True:
            try:
                response: Optional[dict[str, Any]] = self.request(payload)
                error = response.get("error_type")
            except (OSError, ServiceError) as exc:
                # The server itself vanished mid-exchange: retry on the
                # same schedule as a worker loss.
                response, error = None, type(exc).__name__
            if response is not None and (
                response.get("ok") or error not in _TRANSIENT
            ):
                return response
            try:
                delay = next(delays)
            except StopIteration:
                if response is not None:
                    return response
                raise ServiceError(
                    "connection to the server kept failing"
                ) from None
            hint = None if response is None else response.get("retry_after")
            if hint is not None:
                delay = max(delay, float(hint))
            obs.get_registry().counter("retry_attempts").inc()
            obs.log("client.retry", error=error, delay=round(delay, 6))
            self._sleep(delay)

    def stats(self) -> dict[str, Any]:
        return self.request({"cmd": "stats"})

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except (OSError, ValueError):  # pragma: no cover — best effort
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover — best effort
                pass
            self._sock = None

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def metrics_payload(service: PredictionService) -> dict[str, Any]:
    """The ``metrics`` command's body: JSON snapshot + Prometheus text."""
    registries = service.metrics_registries()
    return {
        "ok": True,
        "metrics": obs.to_json(*registries),
        "prometheus": obs.to_prometheus(*registries),
    }


def slo_payload(service: PredictionService) -> dict[str, Any]:
    """The ``slo`` command's body: one rolling SLO judgement."""
    return {"ok": True, "slo": service.slo_report()}


def counters_payload(service: PredictionService) -> dict[str, Any]:
    """The ``counters`` command's body: raw cumulative counter values.

    Every counter of the service's registry and the global one (which
    holds the merged counters of the worker processes), unrendered, for
    clients that diff two reads. Labels travel as item lists (JSON has no
    tuples).
    """
    counters = []
    for registry in service.metrics_registries():
        prefix = f"{registry.namespace}_" if registry.namespace else ""
        for (name, labels), value in sorted(
            obs.counter_snapshot(registry).items()
        ):
            counters.append(
                [prefix + name, [list(item) for item in labels], value]
            )
    return {"ok": True, "counters": counters}


def handle_line(service: PredictionService, line: str) -> Optional[str]:
    """One protocol exchange: a request line in, a JSON response line out.

    Returns ``None`` for blank lines (no response owed). The bare lines
    ``metrics`` and ``slo`` (curl-style, no JSON) are accepted as
    shorthand for the matching ``{"cmd": ...}`` objects.
    """
    line = line.strip()
    if not line:
        return None
    if line == "metrics":
        return json.dumps(metrics_payload(service))
    if line == "slo":
        return json.dumps(slo_payload(service))
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        return json.dumps(error_dict(ReproError(f"invalid JSON: {exc}")))
    if isinstance(payload, list):
        return json.dumps({"ok": True, "results": _handle_batch(service, payload)})
    if not isinstance(payload, dict):
        return json.dumps(
            error_dict(ReproError("request must be a JSON object or array"))
        )
    command = payload.get("cmd")
    if command == "stats":
        return json.dumps({"ok": True, "stats": service.stats()})
    if command == "metrics":
        return json.dumps(metrics_payload(service))
    if command == "slo":
        return json.dumps(slo_payload(service))
    if command == "counters":
        return json.dumps(counters_payload(service))
    has_id = "id" in payload
    request_id = payload.pop("id", None)
    try:
        with obs.correlation(request_id if has_id else None):
            request = PredictRequest.from_dict(payload)
            entry = service.answer(request)
            if faults.check("api.disconnect") is not None:
                # The client dropped mid-request: the work is done (and
                # cached), but nobody is listening for the answer.
                raise ClientDisconnectError(
                    "injected client disconnect (api.disconnect)"
                )
            body = entry.body
            if body is None:
                # First answer from this entry: render it once. Every
                # request field is part of the L1 key, so the body fits
                # every request that hits the entry later.
                body = entry.body = json.dumps(
                    report_to_dict(request, entry.report)
                )
    except ClientDisconnectError:
        raise
    except ReproError as exc:
        response = error_dict(exc)
        if has_id:
            response["id"] = request_id
        return json.dumps(response)
    degraded = service.degraded
    if not (has_id or degraded):
        return body
    # The per-exchange keys go last, in the order report_to_dict and the
    # id echo add them: the same bytes as dumping the whole dict.
    tail = ', "degraded": true' if degraded else ""
    if has_id:
        tail += ', "id": ' + json.dumps(request_id)
    return body[:-1] + tail + "}"


def _handle_batch(
    service: PredictionService, items: list[Any]
) -> list[dict[str, Any]]:
    """Answer an array line as one burst: one cell per configuration."""
    requests: list[Optional[PredictRequest]] = []
    responses: list[Optional[dict[str, Any]]] = []
    ids: list[tuple[bool, Any]] = []
    for item in items:
        has_id, request_id = False, None
        try:
            if not isinstance(item, dict):
                raise ReproError("batch items must be JSON objects")
            item = dict(item)
            has_id, request_id = "id" in item, item.pop("id", None)
            requests.append(PredictRequest.from_dict(item))
            responses.append(None)
        except ReproError as exc:
            requests.append(None)
            responses.append(error_dict(exc))
        ids.append((has_id, request_id))
    live = [r for r in requests if r is not None]
    outcomes = iter(
        service.predict_many(live, return_exceptions=True) if live else []
    )
    for i, request in enumerate(requests):
        if request is None:
            continue
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            responses[i] = error_dict(outcome)
        else:
            responses[i] = report_to_dict(
                request, outcome, degraded=service.degraded
            )
    for i, (has_id, request_id) in enumerate(ids):
        if has_id and responses[i] is not None:
            responses[i]["id"] = request_id
    return responses  # type: ignore[return-value]


def serve_jsonl(
    service: PredictionService, lines: Iterable[str], out: TextIO
) -> dict:
    """Serve a JSON-lines stream until EOF; returns ``service.stats()``."""
    obs.log("serve.jsonl.start")
    served = 0
    for line in lines:
        try:
            response = handle_line(service, line)
        except ClientDisconnectError:
            # A stream "client" cannot really vanish, but the injected
            # disconnect still drops the response on the floor: count it
            # and move to the next line.
            obs.get_registry().counter("client_disconnects").inc()
            obs.log("serve.jsonl.disconnect")
            continue
        if response is not None:
            out.write(response + "\n")
            out.flush()
            served += 1
    obs.log("serve.jsonl.eof", responses=served)
    return service.stats()


class _LineHandler(socketserver.StreamRequestHandler):
    #: Per-connection socket timeout (socketserver applies it in setup()):
    #: a peer that goes silent for this long is disconnected instead of
    #: pinning its handler thread forever.
    timeout = 600.0

    def setup(self) -> None:
        super().setup()
        self.server.track(self.connection, True)

    def finish(self) -> None:
        self.server.track(self.connection, False)
        super().finish()

    def handle(self) -> None:  # pragma: no cover — exercised via serve_socket
        try:
            for raw in self.rfile:
                # Bytes that are not UTF-8 still owe a reply: decoded
                # lossily they fail to parse and get the typed JSON error.
                response = handle_line(
                    self.server.service, raw.decode("utf-8", errors="replace")
                )
                if response is not None:
                    self.wfile.write(response.encode("utf-8") + b"\n")
                    self.wfile.flush()
        except (TimeoutError, ClientDisconnectError, ConnectionError,
                BrokenPipeError):
            # The peer went away (for real, or via the api.disconnect
            # fault): close this connection, keep serving the others.
            obs.get_registry().counter("client_disconnects").inc()
            obs.log("serve.socket.disconnect")


class _ServiceServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service: PredictionService):
        super().__init__(address, _LineHandler)
        self.service = service
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()

    def track(self, connection: socket.socket, live: bool) -> None:
        """Register (or forget) one open client connection."""
        with self._lock:
            if live:
                self._connections.add(connection)
            else:
                self._connections.discard(connection)

    def server_close(self) -> None:
        """Stop listening and drop every open connection, as a dying
        process would: peers see a reset, not a server that still talks."""
        super().server_close()
        with self._lock:
            connections, self._connections = self._connections, set()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def serve_socket(
    service: PredictionService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[threading.Event] = None,
    bound: Optional[list] = None,
    control: Optional[list] = None,
) -> dict:
    """Serve the line protocol over TCP until interrupted; returns
    ``service.stats()``.

    ``port=0`` binds an ephemeral port; the bound ``(host, port)`` is
    logged as ``serve.listening host= port=``, then appended to ``bound``
    (when given), and ``ready`` is set once accepting. ``control`` (when
    given) receives the server object so a supervisor — or a test — can
    call its ``shutdown()`` from another thread.
    """
    with _ServiceServer((host, port), service) as server:
        obs.log(
            "serve.listening",
            host=server.server_address[0],
            port=server.server_address[1],
        )
        if bound is not None:
            bound.append(server.server_address)
        if control is not None:
            control.append(server)
        if ready is not None:
            ready.set()
        try:
            server.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:  # pragma: no cover — interactive shutdown
            pass
        obs.log("serve.stopped")
    return service.stats()

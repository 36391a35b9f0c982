"""Shard ring, shard processes, their managers, and the shard router.

``repro serve --shards N`` splits the prediction keyspace over N
shared-nothing worker *processes*. Each shard owns a full
:class:`~repro.service.engine.PredictionService` — its own L1 cache, memo
``cache_dir`` slice, batcher, worker pool, SLO monitor —
and speaks the ordinary JSONL/TCP line protocol on a loopback port, so
every robustness property of the single-process server (single-flight
dedup, backpressure, deadlines, degraded mode) holds *per shard* with no
new code.

* :class:`HashRing` — consistent hashing with virtual nodes. Cells map to
  shards by the hash of their routing key; removing a shard remaps only
  ~1/N of the keyspace (onto the ring neighbours), which is what lets the
  router survive a SIGKILLed shard by re-routing instead of re-sharding.
* :class:`ShardServiceConfig` — the picklable recipe for one shard's
  service (per-shard memo slice derived by
  :func:`make_shard_configs`), shipped to the child process.
* :func:`shard_main` — the child entry point: install the fault plan,
  build the service, serve the line protocol with the
  ``shard.process.exit`` death checkpoint wrapped around every line.
* :class:`ProcessShardManager` / :class:`InProcessShardManager` — spawn,
  monitor, kill, and respawn the group (real processes for production and
  chaos tests; in-process threads for fast unit tests and custom
  ``execute`` hooks).
* :class:`ShardRouter` — the front process's per-line handler, served by
  the same :func:`~repro.service.api.serve_socket` /
  :func:`~repro.service.api.serve_jsonl` loops as a single service: it
  routes each line to its owning shard over pooled blocking connections,
  sheds over the admission limit, fails over dead shards, and merges the
  ``stats`` / ``metrics`` / ``slo`` commands across the group.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Mapping, Optional, Sequence

from repro import faults, obs
from repro.errors import (
    ReproError,
    ServiceError,
    ServiceSaturatedError,
    ServiceTimeoutError,
    WorkerCrashError,
)
from repro.instrument.runner import MeasurementConfig
from repro.service.api import error_dict, handle_line, serve_socket
from repro.service.engine import PredictionService
from repro.service.slo import BURN_CAP, SLOObjective, merge_slo_reports
from repro.simmachine.machine import MachineConfig

__all__ = [
    "HashRing",
    "ShardServiceConfig",
    "make_shard_configs",
    "shard_main",
    "ProcessShardManager",
    "InProcessShardManager",
    "ShardRouter",
    "route_key",
    "FRONTEND_AVAILABILITY_TARGET",
]

#: Exit code a shard uses when the ``shard.process.exit`` fault fires —
#: distinguishable from a clean shutdown in the manager's post-mortem.
FAULT_EXIT_CODE = 17

#: Fleet availability objective the router judges over its own counters
#: (sheds + synthesized shard-loss errors count against the budget).
FRONTEND_AVAILABILITY_TARGET = 0.99

#: Seconds the router waits for one shard reply before answering
#: ``ServiceTimeoutError``.
REQUEST_TIMEOUT = 600.0

#: Respawn attempts for a dead shard before it stays off the ring.
RESPAWN_ATTEMPTS = 3


def route_key(request: Mapping[str, Any]) -> str:
    """The ring key of one wire request: its *cell* identity.

    Matches :attr:`PredictRequest.config_key` (benchmark, class, nprocs,
    seed) and deliberately excludes ``chain_length``, so all chain lengths
    of one cell land on the same shard and keep coalescing into a single
    measurement plan in that shard's batcher. Malformed requests still
    route (to wherever their best-effort key lands) — the shard answers
    them with the typed error.
    """
    return "|".join(
        str(request.get(field_name))
        for field_name in ("benchmark", "problem_class", "nprocs", "seed")
    )


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each shard id contributes ``vnodes`` points on a 64-bit ring (SHA-256
    of ``"shard:replica"`` — stable across processes and Python builds,
    unlike ``hash()``). A key belongs to the first point clockwise from
    its own hash, so a dead shard's keys fall to its clockwise successors.
    """

    def __init__(self, shard_ids: Sequence[int] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ServiceError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: list[tuple[int, int]] = []  # (hash, shard_id), sorted
        self._hashes: list[int] = []  # parallel list for bisect
        self._shards: set[int] = set()
        for shard_id in shard_ids:
            self.add(shard_id)

    @staticmethod
    def _hash(material: str) -> int:
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """Live shards, sorted."""
        return tuple(sorted(self._shards))

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._shards

    def add(self, shard_id: int) -> None:
        """Add a shard's virtual nodes (idempotent)."""
        if shard_id in self._shards:
            return
        self._shards.add(shard_id)
        for replica in range(self.vnodes):
            point = (self._hash(f"{shard_id}:{replica}"), shard_id)
            index = bisect.bisect_left(self._points, point)
            self._points.insert(index, point)
            self._hashes.insert(index, point[0])

    def remove(self, shard_id: int) -> None:
        """Drop a shard; its arcs fall to the clockwise successors."""
        if shard_id not in self._shards:
            return
        self._shards.discard(shard_id)
        self._points = [p for p in self._points if p[1] != shard_id]
        self._hashes = [h for h, _ in self._points]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key``: the first point clockwise from it."""
        if not self._points:
            raise ServiceError("no live shards on the ring")
        index = bisect.bisect_right(self._hashes, self._hash(key))
        return self._points[index % len(self._points)][1]


@dataclass(frozen=True)
class ShardServiceConfig:
    """Everything one shard process needs to build its service.

    Value-only on purpose (REP007 discipline): configs are frozen
    dataclasses, the fault plan rides along as data, and a custom cell
    executor crosses the process boundary as a dotted reference
    (``"module:callable"``) resolved in the child — never a live callable.
    """

    shard_id: int
    machine: Optional[MachineConfig] = None
    measurement: Optional[MeasurementConfig] = None
    cache_capacity: int = 1024
    cache_ttl: Optional[float] = None
    batch_window: float = 0.005
    max_batch: Optional[int] = None
    max_workers: int = 2
    queue_depth: int = 16
    executor: str = "thread"
    application_seed: int = 7
    default_timeout: Optional[float] = None
    crash_threshold: int = 3
    degraded_probe_every: int = 8
    cache_dir: Optional[str] = None
    tier_policy: str = "exact"
    slo_objectives: Optional[tuple[SLOObjective, ...]] = None
    slo_window: int = 60
    fault_plan: Optional[faults.FaultPlan] = None
    execute_ref: Optional[str] = None

    def resolve_execute(self) -> Optional[Callable[..., Any]]:
        """Import the ``execute_ref`` hook (child side), if any."""
        if self.execute_ref is None:
            return None
        module_name, _, attr = self.execute_ref.partition(":")
        if not module_name or not attr:
            raise ServiceError(
                f"execute_ref must be 'module:callable', "
                f"got {self.execute_ref!r}"
            )
        return getattr(importlib.import_module(module_name), attr)

    def build_service(self) -> PredictionService:
        """Construct this shard's shared-nothing service instance."""
        return PredictionService(
            machine=self.machine,
            measurement=self.measurement,
            cache_capacity=self.cache_capacity,
            cache_ttl=self.cache_ttl,
            batch_window=self.batch_window,
            max_batch=self.max_batch,
            max_workers=self.max_workers,
            queue_depth=self.queue_depth,
            executor=self.executor,
            application_seed=self.application_seed,
            execute=self.resolve_execute(),
            default_timeout=self.default_timeout,
            crash_threshold=self.crash_threshold,
            degraded_probe_every=self.degraded_probe_every,
            cache_dir=self.cache_dir,
            tier_policy=self.tier_policy,
            slo_objectives=self.slo_objectives,
            slo_window=self.slo_window,
            shard_id=self.shard_id,
        )


def make_shard_configs(
    shards: int,
    cache_dir: Optional[str] = None,
    **service_kwargs: Any,
) -> list[ShardServiceConfig]:
    """Per-shard configs with disjoint persistence slices.

    A memo ``cache_dir`` becomes ``{cache_dir}/shard-{NN}`` — shards
    share *nothing*, so there is no cross-process locking anywhere in the
    serving tier. Without one, each shard's service uses its own private
    temporary directory.
    """
    if shards < 1:
        raise ServiceError(f"shards must be >= 1, got {shards}")
    configs = []
    for shard_id in range(shards):
        shard_cache = (
            os.path.join(cache_dir, f"shard-{shard_id:02d}")
            if cache_dir is not None
            else None
        )
        configs.append(
            ShardServiceConfig(
                shard_id=shard_id,
                cache_dir=shard_cache,
                **service_kwargs,
            )
        )
    return configs


def make_shard_handler(
    service: PredictionService,
) -> Callable[[str], Optional[str]]:
    """The per-line handler a shard serves: death checkpoint + protocol.

    The ``shard.process.exit`` fault models a shard dying *mid-line* —
    request parsed, work possibly done, answer never written. ``os._exit``
    (not ``sys.exit``) so no finally-block can soften the crash; the
    router must observe a vanished connection exactly as it would after
    a SIGKILL or an OOM kill.
    """

    def _handle(line: str) -> Optional[str]:
        if faults.check("shard.process.exit") is not None:
            obs.log("shard.fault_exit", shard=service.shard_id)
            os._exit(FAULT_EXIT_CODE)
        return handle_line(service, line)

    return _handle


def shard_main(config: ShardServiceConfig, conn) -> None:  # pragma: no cover
    """Child-process entry: serve one shard until told to stop.

    Announces the bound ``(host, port)`` through ``conn`` (a
    ``multiprocessing`` pipe), then serves until SIGTERM — translated to
    ``SystemExit`` so the server and service unwind cleanly — or until a
    fault/SIGKILL takes the process down hard. SIGINT is ignored.

    Runs in the child, so parent-side coverage cannot see it; the
    handler/service path it assembles is covered via the in-process
    manager, and the whole entry via the chaos battery.
    """
    faults.clear()
    if config.fault_plan is not None:
        faults.install(config.fault_plan)

    def _terminate(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    # A terminal Ctrl-C reaches the whole process group; the front process
    # answers it (final stats from live shards), then stops the group.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service = config.build_service()
    try:
        serve_socket(
            service,
            host="127.0.0.1",
            port=0,
            announce=lambda addr: conn.send(addr),
            handler=make_shard_handler(service),
        )
    finally:
        service.close()


class ProcessShardManager:
    """Spawn and supervise the shared-nothing shard process group.

    Uses the ``forkserver`` start method where available (children fork
    from a clean server process that has already imported this module, so
    respawn after a SIGKILL costs milliseconds, not a full interpreter
    boot) and falls back to ``spawn``. The router calls :meth:`respawn`
    from a background thread when a shard connection drops.
    """

    def __init__(
        self,
        configs: Sequence[ShardServiceConfig],
        start_method: Optional[str] = None,
        spawn_timeout: float = 120.0,
    ):
        if not configs:
            raise ServiceError("at least one shard config is required")
        ids = [config.shard_id for config in configs]
        if len(set(ids)) != len(ids):
            raise ServiceError(f"duplicate shard ids: {ids}")
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = (
                "forkserver" if "forkserver" in available else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        if start_method == "forkserver":
            try:
                self._ctx.set_forkserver_preload(["repro.service.shard"])
            except ValueError:  # pragma: no cover — server already running
                pass
        self.spawn_timeout = spawn_timeout
        self._configs = {config.shard_id: config for config in configs}
        self._lock = threading.Lock()
        self._procs: dict[int, Any] = {}
        self._addrs: dict[int, tuple[str, int]] = {}

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._configs))

    def start(self) -> None:
        """Spawn every shard and wait for each to announce its port."""
        for shard_id in self.shard_ids:
            self._spawn(shard_id)

    def _spawn(self, shard_id: int) -> tuple[str, int]:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=shard_main,
            args=(self._configs[shard_id], child_conn),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(self.spawn_timeout):
            proc.terminate()
            raise ServiceError(
                f"shard {shard_id} did not announce its port within "
                f"{self.spawn_timeout}s"
            )
        try:
            addr = parent_conn.recv()
        except EOFError:
            proc.join(5.0)
            raise ServiceError(
                f"shard {shard_id} died during startup "
                f"(exit code {proc.exitcode})"
            ) from None
        finally:
            parent_conn.close()
        with self._lock:
            self._procs[shard_id] = proc
            self._addrs[shard_id] = tuple(addr)
        obs.log(
            "shard.spawned", shard=shard_id, pid=proc.pid, port=addr[1]
        )
        return tuple(addr)

    def address(self, shard_id: int) -> tuple[str, int]:
        return self._addrs[shard_id]

    def pid(self, shard_id: int) -> Optional[int]:
        proc = self._procs.get(shard_id)
        return proc.pid if proc is not None else None

    def alive(self, shard_id: int) -> bool:
        proc = self._procs.get(shard_id)
        return proc is not None and proc.is_alive()

    def kill(self, shard_id: int) -> None:
        """SIGKILL one shard — the chaos battery's murder weapon."""
        proc = self._procs.get(shard_id)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(10.0)

    def respawn(self, shard_id: int) -> tuple[str, int]:
        """Replace a dead shard with a fresh process; returns its address.

        The replacement starts cold (empty L1) but inherits the shard's
        persistent slice (its memo directory), so previously
        simulated cells come back warm from disk.
        """
        old = self._procs.get(shard_id)
        if old is not None:
            if old.is_alive():  # pragma: no cover — defensive
                old.terminate()
            old.join(10.0)
        return self._spawn(shard_id)

    def stop(self) -> None:
        """Terminate the group (SIGTERM, then SIGKILL stragglers)."""
        with self._lock:
            procs = dict(self._procs)
            self._procs = {}
            self._addrs = {}
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
        for shard_id, proc in procs.items():
            proc.join(10.0)
            if proc.is_alive():  # pragma: no cover — stuck child
                proc.kill()
                proc.join(10.0)
            obs.log("shard.stopped", shard=shard_id, code=proc.exitcode)

    def __enter__(self) -> "ProcessShardManager":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class InProcessShardManager:
    """The same manager surface over in-process server threads.

    For unit tests and single-machine experiments: each "shard" is a
    :func:`serve_socket` thread in this process, built by a factory so
    tests can inject custom ``execute`` hooks (impossible across a real
    process boundary) and still exercise the full router↔shard wire
    path, admission control, and respawn logic. ``kill`` shuts the
    shard's server down abruptly — connections drop exactly as the
    router would see a process death, minus the SIGKILL.
    """

    def __init__(
        self, factories: Sequence[Callable[[], PredictionService]]
    ):
        if not factories:
            raise ServiceError("at least one shard factory is required")
        self._factories = dict(enumerate(factories))
        self._lock = threading.Lock()
        self._services: dict[int, PredictionService] = {}
        self._servers: dict[int, Any] = {}
        self._threads: dict[int, threading.Thread] = {}
        self._addrs: dict[int, tuple[str, int]] = {}

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._factories))

    def start(self) -> None:
        for shard_id in self.shard_ids:
            self._spawn(shard_id)

    def _spawn(self, shard_id: int) -> tuple[str, int]:
        service = self._factories[shard_id]()
        if service.shard_id is None:
            service.shard_id = shard_id
        ready = threading.Event()
        bound: list = []
        control: list = []
        thread = threading.Thread(
            target=serve_socket,
            args=(service,),
            kwargs={
                "host": "127.0.0.1",
                "port": 0,
                "ready": ready,
                "bound": bound,
                "control": control,
                "handler": make_shard_handler(service),
            },
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        thread.start()
        if not ready.wait(30.0):  # pragma: no cover — defensive
            raise ServiceError(f"in-process shard {shard_id} failed to bind")
        with self._lock:
            self._services[shard_id] = service
            self._servers[shard_id] = control[0]
            self._threads[shard_id] = thread
            self._addrs[shard_id] = tuple(bound[0])
        return tuple(bound[0])

    def service(self, shard_id: int) -> PredictionService:
        """The live service object (tests reach in to assert on it)."""
        return self._services[shard_id]

    def address(self, shard_id: int) -> tuple[str, int]:
        return self._addrs[shard_id]

    def pid(self, shard_id: int) -> Optional[int]:
        return None

    def alive(self, shard_id: int) -> bool:
        thread = self._threads.get(shard_id)
        return thread is not None and thread.is_alive()

    def kill(self, shard_id: int) -> None:
        """Tear the shard's server down; open connections drop."""
        server = self._servers.get(shard_id)
        if server is not None:
            server.shutdown()
            server.server_close()
        thread = self._threads.get(shard_id)
        if thread is not None:
            thread.join(10.0)
        service = self._services.get(shard_id)
        if service is not None:
            service.close()

    def respawn(self, shard_id: int) -> tuple[str, int]:
        return self._spawn(shard_id)

    def stop(self) -> None:
        for shard_id in self.shard_ids:
            if self.alive(shard_id):
                self.kill(shard_id)
            elif shard_id in self._services:
                self._services[shard_id].close()

    def __enter__(self) -> "InProcessShardManager":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class ShardRouter:
    """Route the line protocol across a started shard group.

    A per-line handler for :func:`~repro.service.api.serve_socket` and
    :func:`~repro.service.api.serve_jsonl` (pass the router as both the
    served object and ``handler=router.handle_line``). Each exchange
    checks a blocking connection to the owning shard out of that shard's
    idle list (opening one on demand), forwards the line, reads one reply
    line, and returns the connection; a connection that failed is closed
    instead. The server runs one thread per client connection, so the
    ring, idle lists and counters live under one lock and every shard
    exchange happens outside it.

    * **Admission.** A shard with ``admission_limit`` exchanges in flight
      sheds new ones before the process hop with a typed
      ``ServiceSaturatedError`` whose ``retry_after`` comes from that
      shard's latency EWMA; a batch's share for one shard sheds as a unit.
    * **Failover.** A dropped or EOF'd shard connection answers the
      request it carried with a retryable ``WorkerCrashError``, takes the
      shard off the ring (consistent hashing re-routes only its arcs) and
      respawns it in the background.
    * **Aggregation.** ``stats`` nests this router's ledger over every
      shard's stats; ``metrics`` merges shard counters through
      restart-aware counter deltas (:mod:`repro.obs.delta`); ``slo``
      merges shard reports and adds the ``frontend.availability``
      judgement; ``counters`` stays shard-internal.

    Lines on one client connection are answered one at a time, in order,
    and a batch's per-shard groups are forwarded one after another — as
    in the single-process server.
    """

    def __init__(self, manager: Any, admission_limit: int = 32):
        if admission_limit < 1:
            raise ServiceError(
                f"admission_limit must be >= 1, got {admission_limit}"
            )
        self.manager = manager
        self.admission_limit = admission_limit
        self.ring = HashRing(manager.shard_ids)
        self._lock = threading.Lock()
        self._idle: dict[int, list[BinaryIO]] = {
            shard_id: [] for shard_id in manager.shard_ids
        }
        #: Bumped when a shard dies, so connections opened before the
        #: death are never pooled again or blamed for a second one.
        self._generation = dict.fromkeys(manager.shard_ids, 0)
        self._in_flight = dict.fromkeys(manager.shard_ids, 0)
        #: EWMA of exchange latency per shard, the honesty behind
        #: retry_after.
        self._latency = dict.fromkeys(manager.shard_ids, 0.05)
        self._respawners: list[threading.Thread] = []
        self._closed = False
        #: The router's own ledger: requests seen, sheds, synthesized
        #: errors, shard deaths and respawns.
        self.requests = 0
        self.shed = 0
        self.failed = 0
        self.deaths = 0
        self.respawns = 0
        #: Shard counters merged here via restart-aware deltas.
        self._shard_registry = obs.MetricsRegistry()
        self._last_counters: dict[int, dict] = {}

    # -- shard exchanges ---------------------------------------------------

    def _exchange(self, shard_id: int, line: str) -> str:
        """Send one line over a pooled shard connection; return the reply."""
        with self._lock:
            generation = self._generation[shard_id]
            idle = self._idle[shard_id]
            conn = idle.pop() if idle else None
        started = time.monotonic()
        try:
            if conn is None:
                with socket.create_connection(
                    self.manager.address(shard_id), timeout=REQUEST_TIMEOUT
                ) as sock:
                    conn = sock.makefile("rwb")
            conn.write(line.encode("utf-8") + b"\n")
            conn.flush()
            raw = conn.readline()
        except TimeoutError:
            if conn is not None:
                conn.close()
            raise ServiceTimeoutError(
                f"shard {shard_id} did not answer within {REQUEST_TIMEOUT}s",
                timeout=REQUEST_TIMEOUT,
            ) from None
        except OSError:
            raw = b""
        if not raw:
            if conn is not None:
                conn.close()
            self._shard_down(shard_id, generation)
            raise WorkerCrashError(f"shard {shard_id} dropped mid-request")
        elapsed = time.monotonic() - started
        with self._lock:
            self._latency[shard_id] = (
                0.8 * self._latency[shard_id] + 0.2 * elapsed
            )
            pooled = (
                not self._closed
                and generation == self._generation[shard_id]
            )
            if pooled:
                self._idle[shard_id].append(conn)
        if not pooled:
            conn.close()
        return raw.decode("utf-8").rstrip("\n")

    def _forward(self, shard_id: int, line: str, count: int = 1) -> str:
        """Admit, then exchange a line carrying ``count`` requests."""
        with self._lock:
            in_flight = self._in_flight[shard_id]
            if in_flight >= self.admission_limit:
                self.shed += 1
                retry_after = round(
                    max(0.05, self._latency[shard_id] * in_flight), 4
                )
            else:
                self._in_flight[shard_id] = in_flight + 1
                retry_after = None
        if retry_after is not None:
            obs.get_registry().counter(
                "frontend_shed", shard=str(shard_id)
            ).inc()
            raise ServiceSaturatedError(
                f"shard {shard_id} admission queue is full "
                f"({in_flight} in flight)",
                retry_after=retry_after,
            )
        try:
            return self._exchange(shard_id, line)
        except (WorkerCrashError, ServiceTimeoutError):
            with self._lock:
                self.failed += count
            obs.get_registry().counter(
                "frontend_shard_errors", shard=str(shard_id)
            ).inc()
            raise
        finally:
            with self._lock:
                self._in_flight[shard_id] -= 1

    def _owner(self, payload: Mapping[str, Any]) -> int:
        with self._lock:
            try:
                return self.ring.shard_for(route_key(payload))
            except ServiceError:
                # A total outage between death and respawn is transient —
                # type it so client retry policies ride it out.
                self.failed += 1
        raise WorkerCrashError(
            "no live shards on the ring; retry after respawn"
        )

    # -- failover ----------------------------------------------------------

    def _shard_down(self, shard_id: int, generation: int) -> None:
        """Take a dead shard off the ring and respawn it in the background."""
        with self._lock:
            if (
                self._closed
                or generation != self._generation[shard_id]
                or shard_id not in self.ring
            ):
                return  # stale connection, or this death is handled
            self._generation[shard_id] += 1
            stale, self._idle[shard_id] = self._idle[shard_id], []
            self.ring.remove(shard_id)
            self.deaths += 1
            live = len(self.ring)
            respawner = threading.Thread(
                target=self._respawn,
                args=(shard_id,),
                daemon=True,
                name=f"repro-respawn-{shard_id}",
            )
            self._respawners.append(respawner)
        for conn in stale:
            conn.close()
        obs.get_registry().counter("shard_deaths", shard=str(shard_id)).inc()
        obs.log("frontend.shard_down", shard=shard_id, live=live)
        respawner.start()

    def _respawn(self, shard_id: int) -> None:
        for attempt in range(RESPAWN_ATTEMPTS):
            try:
                self.manager.respawn(shard_id)
                break
            except (ServiceError, OSError):
                if attempt == RESPAWN_ATTEMPTS - 1:
                    obs.log("frontend.respawn_failed", shard=shard_id)
                    return
                time.sleep(0.2 * (attempt + 1))
        with self._lock:
            self.ring.add(shard_id)
            self.respawns += 1
        obs.get_registry().counter("shard_respawns", shard=str(shard_id)).inc()
        obs.log("frontend.shard_respawned", shard=shard_id)

    # -- the protocol ------------------------------------------------------

    def handle_line(self, line: str) -> Optional[str]:
        """One exchange; mirrors :func:`repro.service.api.handle_line`."""
        line = line.strip()
        if not line:
            return None
        if line == "metrics":
            return json.dumps(self._metrics_payload())
        if line == "slo":
            return json.dumps(self._slo_payload())
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            return json.dumps(error_dict(ReproError(f"invalid JSON: {exc}")))
        if isinstance(payload, list):
            results = self._route_batch(payload)
            return json.dumps({"ok": True, "results": results})
        if not isinstance(payload, dict):
            return json.dumps(
                error_dict(
                    ReproError("request must be a JSON object or array")
                )
            )
        command = payload.get("cmd")
        if command == "stats":
            return json.dumps({"ok": True, "stats": self.stats()})
        if command == "metrics":
            return json.dumps(self._metrics_payload())
        if command == "slo":
            return json.dumps(self._slo_payload())
        if command == "counters":
            return json.dumps(
                error_dict(
                    ReproError(
                        "counters is a shard-internal command; "
                        "use metrics at the frontend"
                    )
                )
            )
        with self._lock:
            self.requests += 1
        request_id = payload.get("id")
        with obs.correlation(
            str(request_id) if request_id is not None else None
        ), obs.span("frontend.route"):
            try:
                return self._forward(self._owner(payload), line)
            except ReproError as exc:
                response = error_dict(exc)
        if request_id is not None:
            response["id"] = request_id
        return json.dumps(response)

    def _route_batch(self, items: list) -> list[dict[str, Any]]:
        """Split an array line across shards, reassemble in request order."""
        with self._lock:
            self.requests += len(items)
        results: list[Any] = [None] * len(items)
        groups: dict[int, list[int]] = {}
        for index, item in enumerate(items):
            try:
                if not isinstance(item, dict):
                    raise ReproError("batch items must be JSON objects")
                groups.setdefault(self._owner(item), []).append(index)
            except ReproError as exc:
                results[index] = error_dict(exc)
        for shard_id, indices in groups.items():
            try:
                raw = self._forward(
                    shard_id,
                    json.dumps([items[i] for i in indices]),
                    count=len(indices),
                )
                group_results = json.loads(raw)["results"]
            except ReproError as exc:
                group_results = [error_dict(exc) for _ in indices]
            for index, result in zip(indices, group_results):
                results[index] = result
        for item, result in zip(items, results):
            if isinstance(item, dict) and "id" in item:
                result.setdefault("id", item["id"])
        return results

    # -- aggregation commands ----------------------------------------------

    def _shard_command(self, command: str) -> dict[int, dict]:
        """Send one ``{"cmd": ...}`` to every live shard, one after another."""
        with self._lock:
            live = self.ring.shard_ids
        docs = {}
        for shard_id in live:
            try:
                doc = json.loads(
                    self._exchange(shard_id, json.dumps({"cmd": command}))
                )
            except (WorkerCrashError, ServiceTimeoutError):
                continue
            if doc.get("ok"):
                docs[shard_id] = doc
        return docs

    def frontend_stats(self) -> dict[str, Any]:
        """The router's own ledger (requests routed, sheds, deaths...)."""
        with self._lock:
            return {
                "requests": self.requests,
                "shed": self.shed,
                "failed": self.failed,
                "shard_deaths": self.deaths,
                "shard_respawns": self.respawns,
                "live_shards": len(self.ring),
                "shards": list(self.ring.shard_ids),
                "pending": {
                    str(shard_id): count
                    for shard_id, count in self._in_flight.items()
                },
            }

    def stats(self) -> dict[str, Any]:
        """``{"frontend": ledger, "shards": {id: shard stats}}``."""
        shard_docs = self._shard_command("stats")
        return {
            "frontend": self.frontend_stats(),
            "shards": {
                str(shard_id): doc["stats"]
                for shard_id, doc in shard_docs.items()
            },
        }

    def _metrics_payload(self) -> dict[str, Any]:
        """Counter-delta merge across the process hop, then export."""
        shard_docs = self._shard_command("counters")
        with self._lock:
            for shard_id, doc in shard_docs.items():
                snapshot = {
                    (name, tuple(tuple(item) for item in labels)): value
                    for name, labels, value in doc["counters"]
                }
                deltas = obs.deltas_between(
                    self._last_counters.get(shard_id, {}),
                    snapshot,
                    allow_reset=True,  # a respawned shard restarts from zero
                )
                obs.merge_counter_deltas(deltas, self._shard_registry)
                self._last_counters[shard_id] = snapshot
        registries = (self._shard_registry, obs.get_registry())
        return {
            "ok": True,
            "metrics": obs.to_json(*registries),
            "prometheus": obs.to_prometheus(*registries),
        }

    def _slo_payload(self) -> dict[str, Any]:
        shard_docs = self._shard_command("slo")
        merged = merge_slo_reports(
            {str(shard_id): doc["slo"] for shard_id, doc in shard_docs.items()}
        )
        merged["frontend"] = self._judge_availability()
        return {"ok": True, "slo": merged}

    def _judge_availability(self) -> dict[str, Any]:
        """The router's own availability objective over its ledger.

        Sheds and synthesized shard-loss errors are the router's failures
        to serve; judging them here (and exporting breaches as ordinary
        counters) is what lets the chaos battery assert "a SIGKILLed shard
        moves the SLO needles".
        """
        ledger = self.frontend_stats()
        total = ledger["requests"]
        bad = ledger["shed"] + ledger["failed"]
        compliance = 1.0 - (bad / total) if total else 1.0
        budget = 1.0 - FRONTEND_AVAILABILITY_TARGET
        burn = min((bad / total) / budget, BURN_CAP) if total else 0.0
        met = compliance >= FRONTEND_AVAILABILITY_TARGET
        registry = obs.get_registry()
        labels = {"objective": "frontend.availability"}
        registry.gauge("slo_burn_rate", labels).set(burn)
        registry.gauge("slo_compliance", labels).set(compliance)
        if not met and total:
            registry.counter("slo_breaches", labels).inc()
        return {
            "name": "frontend.availability",
            "kind": "error_rate",
            "target": FRONTEND_AVAILABILITY_TARGET,
            "total": total,
            "bad": bad,
            "shed": ledger["shed"],
            "failed": ledger["failed"],
            "shard_deaths": ledger["shard_deaths"],
            "shard_respawns": ledger["shard_respawns"],
            "compliance": compliance,
            "burn_rate": burn,
            "met": met,
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close pooled connections and wait out running respawns.

        The shard manager is borrowed, not owned: stop it after this.
        """
        with self._lock:
            self._closed = True
            idle = [conn for conns in self._idle.values() for conn in conns]
            self._idle = {shard_id: [] for shard_id in self._idle}
            respawners = list(self._respawners)
        for conn in idle:
            conn.close()
        for respawner in respawners:
            respawner.join(30.0)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

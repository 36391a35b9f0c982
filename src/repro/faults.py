"""Deterministic, seedable fault injection for the serving stack.

Production code is threaded with named *fault sites* — fixed checkpoints
where a specific failure can be planted::

    spec = faults.check("worker.cell.crash")
    if spec is not None:
        raise WorkerCrashError("injected worker crash")

A site is inert (one module-global read and a ``None`` test) until a
:class:`FaultPlan` is installed.  The plan lists :class:`FaultSpec`
triggers — fire every Nth hit, fire with probability p, fire after a
warm-up, cap total fires — and a seed.  Every probabilistic decision is
drawn from a per-site stream derived from ``(seed, site)``, so:

* the same plan replayed over the same per-site hit sequence fires at
  exactly the same hits, regardless of how threads interleave *across*
  sites (each site owns its stream);
* the chaos harness can reconcile observed behaviour against
  :meth:`FaultInjector.fires` and the ``fault_injected{site=...}``
  counter in the global obs registry.

The registered site table lives in :data:`SITES`; the static analyzer's
REP004 rule (``repro lint``) keeps it in sync with the ``faults.check``
checkpoints threaded through the codebase in both directions.
"""

from __future__ import annotations

import json
import random
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "SITES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "install",
    "clear",
    "get_injector",
    "reset_after_fork",
    "active",
    "check",
]

#: The registered fault sites: every string production code passes to
#: :func:`check` must appear here, and every entry here must have a live
#: checkpoint (REP004 in ``repro lint`` enforces both directions).  Tests
#: may use ad-hoc site names; plans built against unregistered sites are
#: simply inert.
SITES: Mapping[str, str] = {
    # run_cell checks both for every cell: server, pool and serial
    # pipeline cells alike.
    "worker.cell.crash": "cell execution raises WorkerCrashError",
    "worker.cell.stall": "cell execution sleeps `param` wall seconds first",
    "pool.submit.reject": "worker pool pretends its queue is full",
    "engine.dispatch.error": "dispatch fails the whole cell with a typed error",
    "cache.l1.drop": "the L1 report entry evaporates (read corruption)",
    "db.write.corrupt": "a memo-store payload is corrupted on write",
    "db.read.corrupt": "a memo-store payload bit-rots on read",
    "api.disconnect": "the wire client disconnects mid-request",
    "sim.run.error": "the discrete-event simulator crashes",
    "sim.run.noise": "event delays this run are scaled by `param`",
}


@dataclass(frozen=True)
class FaultSpec:
    """When one site fires.

    Exactly one trigger must be set: ``every_nth`` (deterministic cadence
    — fire on the Nth, 2Nth, ... hit) or ``probability`` (per-hit
    Bernoulli from the site's seeded stream). ``after`` skips that many
    initial hits, ``max_fires`` caps total fires, and ``param`` carries a
    site-specific magnitude (stall seconds, delay scale factor).
    """

    site: str
    probability: float = 0.0
    every_nth: int = 0
    after: int = 0
    max_fires: Optional[int] = None
    param: float = 0.0

    def __post_init__(self) -> None:
        if not self.site:
            raise ConfigurationError("fault site name must be non-empty")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.every_nth < 0:
            raise ConfigurationError(
                f"every_nth must be >= 0, got {self.every_nth}"
            )
        if (self.every_nth > 0) == (self.probability > 0.0):
            raise ConfigurationError(
                f"fault site {self.site!r} needs exactly one trigger: "
                "every_nth or probability"
            )
        if self.after < 0:
            raise ConfigurationError(f"after must be >= 0, got {self.after}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigurationError(
                f"max_fires must be >= 1, got {self.max_fires}"
            )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"site": self.site}
        if self.probability:
            out["probability"] = self.probability
        if self.every_nth:
            out["every_nth"] = self.every_nth
        if self.after:
            out["after"] = self.after
        if self.max_fires is not None:
            out["max_fires"] = self.max_fires
        if self.param:
            out["param"] = self.param
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        known = {"site", "probability", "every_nth", "after", "max_fires", "param"}
        extra = set(data) - known
        if extra:
            raise ConfigurationError(
                f"unknown fault spec fields: {sorted(extra)}"
            )
        return cls(
            site=data["site"],
            probability=float(data.get("probability", 0.0)),
            every_nth=int(data.get("every_nth", 0)),
            after=int(data.get("after", 0)),
            max_fires=data.get("max_fires"),
            param=float(data.get("param", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the set of sites to perturb (one spec per site)."""

    specs: tuple[FaultSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        sites = [s.site for s in self.specs]
        dupes = {s for s in sites if sites.count(s) > 1}
        if dupes:
            raise ConfigurationError(
                f"duplicate fault sites in plan: {sorted(dupes)}"
            )
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(s.site for s in self.specs)

    def schedule(self, site: str, hits: int) -> tuple[bool, ...]:
        """The exact fire/no-fire decisions for the first ``hits`` hits.

        Pure: building the schedule twice (or installing the plan twice)
        yields bit-identical sequences — the determinism contract the
        chaos harness pins.
        """
        injector = FaultInjector(self, record_metrics=False)
        return tuple(
            injector.check(site) is not None for _ in range(hits)
        )

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "faults": [s.to_dict() for s in self.specs]},
            indent=2,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            specs=tuple(
                FaultSpec.from_dict(item) for item in data.get("faults", ())
            ),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid fault plan JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("fault plan must be a JSON object")
        return cls.from_dict(data)


def _site_seed(seed: int, site: str) -> int:
    """A stable per-site stream seed (crc32 keeps it version-independent)."""
    return (seed << 32) ^ zlib.crc32(site.encode("utf-8"))


@dataclass
class _SiteState:
    spec: FaultSpec
    rng: random.Random
    hits: int = 0
    fires: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class FaultInjector:
    """Live decision-maker for one installed :class:`FaultPlan`.

    Thread-safe; per-site locks keep hit counting and the RNG stream
    consistent under concurrent checkpoints.
    """

    def __init__(self, plan: FaultPlan, record_metrics: bool = True) -> None:
        self.plan = plan
        self._record_metrics = record_metrics
        self._sites = {
            spec.site: _SiteState(
                spec=spec, rng=random.Random(_site_seed(plan.seed, spec.site))
            )
            for spec in plan.specs
        }

    def check(self, site: str) -> Optional[FaultSpec]:
        """One checkpoint hit: the spec when the fault fires, else None."""
        state = self._sites.get(site)
        if state is None:
            return None
        spec = state.spec
        with state.lock:
            index = state.hits
            state.hits += 1
            if index < spec.after:
                return None
            if spec.max_fires is not None and state.fires >= spec.max_fires:
                return None
            if spec.every_nth:
                fire = (index - spec.after + 1) % spec.every_nth == 0
            else:
                # One draw per eligible hit keeps the stream aligned with
                # the hit index, independent of earlier max_fires cutoffs.
                fire = state.rng.random() < spec.probability
            if not fire:
                return None
            state.fires += 1
        if self._record_metrics:
            from repro import obs

            obs.get_registry().counter("fault_injected", site=site).inc()
            obs.log("fault.injected", site=site, fire=state.fires)
        return spec

    def fires(self) -> dict[str, int]:
        """Total fires per site so far."""
        return {site: st.fires for site, st in self._sites.items()}

    def hits(self) -> dict[str, int]:
        """Total checkpoint hits per site so far."""
        return {site: st.hits for site, st in self._sites.items()}


_lock = threading.Lock()
_active: Optional[FaultInjector] = None


def install(plan: FaultPlan) -> FaultInjector:
    """Activate a plan process-wide; returns the injector for accounting."""
    global _active
    with _lock:
        injector = FaultInjector(plan)
        _active = injector
    return injector


def clear() -> None:
    """Deactivate fault injection (every site goes back to inert)."""
    global _active
    with _lock:
        _active = None


def reset_after_fork() -> None:
    """Forget the inherited plan and lock in a forked worker process.

    A parent thread may have held the module lock at the moment of the
    fork; the child gets a fresh one and no active plan, so it runs only
    the plans it installs itself.
    """
    global _lock, _active
    _lock = threading.Lock()
    _active = None


def get_injector() -> Optional[FaultInjector]:
    """The live injector, or None when no plan is installed."""
    return _active


@contextmanager
def active(plan: FaultPlan) -> Iterator[FaultInjector]:
    """``with faults.active(plan) as injector: ...`` — scoped installation."""
    injector = install(plan)
    try:
        yield injector
    finally:
        clear()


def check(site: str) -> Optional[FaultSpec]:
    """The hot-path checkpoint: None unless a plan is installed and fires.

    Cost with no plan installed: one global read and one ``is None`` test.
    """
    injector = _active
    if injector is None:
        return None
    return injector.check(site)


def plan_from_specs(
    specs: Sequence[Mapping[str, Any]], seed: int = 0
) -> FaultPlan:
    """Convenience builder from plain dicts (CLI / test helpers)."""
    return FaultPlan(
        specs=tuple(FaultSpec.from_dict(s) for s in specs), seed=seed
    )

"""Content-addressed identities for memoized simulation results.

Every record in the :class:`~repro.parallel.memo.SimulationMemoStore` is
named by a SHA-256 digest of a *key description*: a canonical JSON object
spelling out everything the simulated number depends on — the full machine
configuration, the measurement protocol (repetitions, contexts, noise
seed), the benchmark/class/nprocs cell, and the kernel chain (or the
application-run parameters). REP001 guarantees the simulation tier is
deterministic, so two runs with equal keys produce bit-identical samples —
which is exactly what makes the digest a safe substitute for re-simulating.

Four key kinds exist:

* ``measurement`` — one :meth:`ChainRunner.measure` result (samples +
  overhead) for a specific kernel window;
* ``application`` — one :meth:`ApplicationRunner.run` total time;
* ``cell`` — a whole sweep cell (prediction inputs + actual). The
  experiment pipeline and the serving engine both read and write it with
  the same ``{"inputs", "actual"}`` payload, so either one's warm cache
  directory answers the other's cells without simulating;
* ``archive`` — the serving engine's answer for one cell at one chain
  length: the ``cell`` fields with the noise seed dropped from the
  measurement protocol. The first batch to write it wins (create-if-absent)
  and every request for that machine, protocol, cell and chain length, at
  any seed, is answered from it.

Each builder returns a :class:`MemoKey`, which carries its canonical JSON
text. The text is rendered once per distinct set of builder arguments:
the members are spliced around each config's cached fingerprint text, so
no fingerprint is ever parsed back out of JSON, and ``archive_key``
renders its seed-free protocol directly rather than editing a cell key.
The store names and verifies records by that text (:func:`key_text`); a
plain mapping is rendered through the same function once per call.

Bumping :data:`SCHEMA_VERSION` invalidates every existing entry at once —
do that whenever the simulator's numeric behaviour changes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.instrument.runner import MeasurementConfig
from repro.simmachine.machine import MachineConfig

__all__ = [
    "SCHEMA_VERSION",
    "MemoKey",
    "canonical_json",
    "key_text",
    "measurement_key",
    "application_key",
    "cell_key",
    "archive_key",
    "digest",
    "digest_canonical",
]

#: Bump to invalidate every memoized simulation at once (numeric changes).
#: v2: cell keys carry the producing tier, so analytic-tier artifacts can
#: never shadow simulation ground truth under the same address.
SCHEMA_VERSION = 2

#: Rendered key texts kept per key kind (a warm campaign needs one per
#: cell; the bound caps a server's footprint under fresh seeds).
_TEXTS = 1024


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, plain floats."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class MemoKey(Mapping[str, Any]):
    """A key description that carries its canonical JSON text.

    ``canonical`` is what the store hashes into a path and finds verbatim
    in the record. The mapping is a read-only view of the same fields,
    parsed from that text on first read: nothing on the hit path reads
    it, and what one key hands out is its own, so mutating it changes
    neither this key's text nor any other key.
    """

    __slots__ = ("canonical", "_fields")

    def __init__(self, canonical: str) -> None:
        self.canonical = canonical
        self._fields: Optional[dict[str, Any]] = None

    def _view(self) -> dict[str, Any]:
        if self._fields is None:
            self._fields = json.loads(self.canonical)
        return self._fields

    def __getitem__(self, name: str) -> Any:
        return self._view()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._view())

    def __len__(self) -> int:
        return len(self._view())

    def __repr__(self) -> str:
        return f"MemoKey({self.canonical})"


def key_text(key: Mapping[str, Any]) -> str:
    """The canonical JSON text naming ``key``: carried, or rendered once."""
    if isinstance(key, MemoKey):
        return key.canonical
    return canonical_json(dict(key))


@functools.lru_cache(maxsize=64)
def _fingerprint_json(config: Any, drop: tuple[str, ...] = ()) -> str:
    """A frozen config dataclass as canonical JSON, less the ``drop`` fields.

    The configs are frozen and hashable, so the ``asdict`` walk runs once
    per distinct config.
    """
    fields = dataclasses.asdict(config)
    for name in drop:
        del fields[name]
    return canonical_json(fields)


def _render(fields: dict[str, Any], **fingerprints: str) -> str:
    """Canonical JSON of ``fields`` plus already-rendered config members.

    Equals ``canonical_json`` of the whole object: every member is
    rendered canonically and the members are joined in sorted order.
    """
    members = {name: canonical_json(value) for name, value in fields.items()}
    members.update(fingerprints)
    return "{%s}" % ",".join(
        f"{canonical_json(name)}:{members[name]}" for name in sorted(members)
    )


def measurement_key(
    machine: MachineConfig,
    measurement: MeasurementConfig,
    benchmark: str,
    problem_class: str,
    nprocs: int,
    kernels: Sequence[str],
) -> MemoKey:
    """Identity of one chain (or isolated-kernel) measurement."""
    return MemoKey(
        _measurement_text(
            machine, measurement, benchmark, problem_class, nprocs,
            tuple(kernels),
        )
    )


@functools.lru_cache(maxsize=_TEXTS, typed=True)
def _measurement_text(
    machine: MachineConfig,
    measurement: MeasurementConfig,
    benchmark: str,
    problem_class: str,
    nprocs: int,
    kernels: tuple[str, ...],
) -> str:
    return _render(
        {
            "schema": SCHEMA_VERSION,
            "kind": "measurement",
            "benchmark": benchmark,
            "problem_class": problem_class,
            "nprocs": nprocs,
            "kernels": list(kernels),
        },
        machine=_fingerprint_json(machine),
        measurement=_fingerprint_json(measurement),
    )


def application_key(
    machine: MachineConfig,
    benchmark: str,
    problem_class: str,
    nprocs: int,
    seed: int,
    warmup_iterations: int = 2,
    measured_iterations: int = 6,
) -> MemoKey:
    """Identity of one full application run (the tables' "Actual")."""
    return MemoKey(
        _application_text(
            machine, benchmark, problem_class, nprocs, seed,
            warmup_iterations, measured_iterations,
        )
    )


@functools.lru_cache(maxsize=_TEXTS, typed=True)
def _application_text(
    machine: MachineConfig,
    benchmark: str,
    problem_class: str,
    nprocs: int,
    seed: int,
    warmup_iterations: int,
    measured_iterations: int,
) -> str:
    return _render(
        {
            "schema": SCHEMA_VERSION,
            "kind": "application",
            "benchmark": benchmark,
            "problem_class": problem_class,
            "nprocs": nprocs,
            "seed": seed,
            "warmup_iterations": warmup_iterations,
            "measured_iterations": measured_iterations,
        },
        machine=_fingerprint_json(machine),
    )


def cell_key(
    machine: MachineConfig,
    measurement: MeasurementConfig,
    benchmark: str,
    problem_class: str,
    nprocs: int,
    chain_lengths: Sequence[int],
    application_seed: int,
) -> MemoKey:
    """Identity of a whole sweep cell (inputs for every predictor + actual).

    Only the simulation tier writes cell records, so the key's ``tier``
    field is the constant ``"simulation"``; it stays in the key material
    so the addresses of stored records do not move.
    """
    return MemoKey(
        _cell_text(
            "cell", machine, measurement, (), benchmark, problem_class,
            nprocs, tuple(sorted(set(int(n) for n in chain_lengths))),
            application_seed,
        )
    )


def archive_key(
    machine: MachineConfig,
    measurement: MeasurementConfig,
    benchmark: str,
    problem_class: str,
    nprocs: int,
    chain_length: int,
    application_seed: int,
) -> MemoKey:
    """Identity of one archived answer: a cell key minus the noise seed.

    The serving engine's store rung reads exactly this one record per
    request, so a fresh seed is answered from whichever seed archived the
    (machine, protocol, cell, chain length) first.
    """
    return MemoKey(
        _cell_text(
            "archive", machine, measurement, ("seed",), benchmark,
            problem_class, nprocs, (int(chain_length),), application_seed,
        )
    )


@functools.lru_cache(maxsize=_TEXTS, typed=True)
def _cell_text(
    kind: str,
    machine: MachineConfig,
    measurement: MeasurementConfig,
    dropped: tuple[str, ...],
    benchmark: str,
    problem_class: str,
    nprocs: int,
    chain_lengths: tuple[int, ...],
    application_seed: int,
) -> str:
    return _render(
        {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "benchmark": benchmark,
            "problem_class": problem_class,
            "nprocs": nprocs,
            "chain_lengths": list(chain_lengths),
            "application_seed": application_seed,
            "tier": "simulation",
        },
        machine=_fingerprint_json(machine),
        measurement=_fingerprint_json(measurement, dropped),
    )


def digest(key: Mapping[str, Any]) -> str:
    """The content address: SHA-256 over the key's canonical JSON."""
    return digest_canonical(key_text(key))


def digest_canonical(canonical: str) -> str:
    """:func:`digest` of a key already rendered by :func:`canonical_json`."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

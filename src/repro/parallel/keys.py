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

Bumping :data:`SCHEMA_VERSION` invalidates every existing entry at once —
do that whenever the simulator's numeric behaviour changes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Any, Mapping, Sequence

from repro.instrument.runner import MeasurementConfig
from repro.simmachine.machine import MachineConfig

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "config_fingerprint",
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


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, plain floats."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=64)
def _fingerprint_json(config: Any) -> str:
    return canonical_json(dataclasses.asdict(config))


def config_fingerprint(config: Any) -> dict:
    """A frozen dataclass (MachineConfig/MeasurementConfig) as plain JSON.

    The configs are frozen and hashable, so the expensive ``asdict`` walk
    runs once per distinct config; every caller still gets its own fresh
    dict (tuples already turned into lists, as after a JSON round-trip).
    """
    return json.loads(_fingerprint_json(config))


def measurement_key(
    machine: MachineConfig,
    measurement: MeasurementConfig,
    benchmark: str,
    problem_class: str,
    nprocs: int,
    kernels: Sequence[str],
) -> dict:
    """Identity of one chain (or isolated-kernel) measurement."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "measurement",
        "machine": config_fingerprint(machine),
        "measurement": config_fingerprint(measurement),
        "benchmark": benchmark,
        "problem_class": problem_class,
        "nprocs": nprocs,
        "kernels": list(kernels),
    }


def application_key(
    machine: MachineConfig,
    benchmark: str,
    problem_class: str,
    nprocs: int,
    seed: int,
    warmup_iterations: int = 2,
    measured_iterations: int = 6,
) -> dict:
    """Identity of one full application run (the tables' "Actual")."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "application",
        "machine": config_fingerprint(machine),
        "benchmark": benchmark,
        "problem_class": problem_class,
        "nprocs": nprocs,
        "seed": seed,
        "warmup_iterations": warmup_iterations,
        "measured_iterations": measured_iterations,
    }


def cell_key(
    machine: MachineConfig,
    measurement: MeasurementConfig,
    benchmark: str,
    problem_class: str,
    nprocs: int,
    chain_lengths: Sequence[int],
    application_seed: int,
    tier: str = "simulation",
) -> dict:
    """Identity of a whole sweep cell (inputs for every predictor + actual).

    ``tier`` names the serving-ladder rung that produced the numbers; it is
    part of the canonical key material so results from different rungs
    (analytic closed forms vs discrete-event simulation) occupy distinct
    addresses in the memo store.
    """
    return {
        "schema": SCHEMA_VERSION,
        "kind": "cell",
        "machine": config_fingerprint(machine),
        "measurement": config_fingerprint(measurement),
        "benchmark": benchmark,
        "problem_class": problem_class,
        "nprocs": nprocs,
        "chain_lengths": sorted(set(int(length) for length in chain_lengths)),
        "application_seed": application_seed,
        "tier": str(tier),
    }


def archive_key(
    machine: MachineConfig,
    measurement: MeasurementConfig,
    benchmark: str,
    problem_class: str,
    nprocs: int,
    chain_length: int,
    application_seed: int,
) -> dict:
    """Identity of one archived answer: a cell key minus the noise seed.

    The serving engine's store rung reads exactly this one record per
    request, so a fresh seed is answered from whichever seed archived the
    (machine, protocol, cell, chain length) first.
    """
    key = cell_key(
        machine,
        measurement,
        benchmark,
        problem_class,
        nprocs,
        (chain_length,),
        application_seed,
    )
    key["kind"] = "archive"
    del key["measurement"]["seed"]
    return key


def digest(key: Mapping[str, Any]) -> str:
    """The content address: SHA-256 over the canonical key JSON."""
    return digest_canonical(canonical_json(dict(key)))


def digest_canonical(canonical: str) -> str:
    """:func:`digest` of a key already rendered by :func:`canonical_json`."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

"""Parallel campaign execution and the content-addressed simulation memo.

Reproducing a full table suite means simulating many independent
(benchmark, class, nprocs) cells. This package makes that fast twice over:

* :mod:`repro.parallel.memo` — the one persistent result store: a
  process-safe, content-addressed on-disk store
  (:class:`SimulationMemoStore`) keyed by digests from
  :mod:`repro.parallel.keys`; an already-measured sweep cell is read
  back as one cell record, any already-simulated measurement or
  application run is replayed from disk instead of re-simulated, and the
  serving engine answers archived cells from one archive record.
* :mod:`repro.parallel.executor` / :mod:`repro.parallel.worker` — a
  sweep's missing measurements fanned out across a
  ``ProcessPoolExecutor``, one task each, then each cell assembled from
  the stored records in submission order, with observability counters
  carried across the pool boundary.

The correctness bedrock is REP001: the simulation tier is deterministic,
so equal cache keys imply bit-identical results, and serial, parallel, and
cache-warm runs all produce the same numbers (tier-1 tests assert this).
"""

from repro.parallel.executor import execute_cells
from repro.parallel.keys import (
    SCHEMA_VERSION,
    application_key,
    archive_key,
    canonical_json,
    cell_key,
    digest,
    measurement_key,
)
from repro.parallel.memo import SimulationMemoStore
from repro.parallel.worker import (
    CellResult,
    CellSpec,
    MeasureResult,
    measure,
    measure_chain,
    prime_runner_overhead,
    run_application,
    run_cell,
)

__all__ = [
    "SCHEMA_VERSION",
    "SimulationMemoStore",
    "CellResult",
    "CellSpec",
    "MeasureResult",
    "application_key",
    "archive_key",
    "canonical_json",
    "cell_key",
    "digest",
    "execute_cells",
    "measure",
    "measure_chain",
    "measurement_key",
    "prime_runner_overhead",
    "run_application",
    "run_cell",
]

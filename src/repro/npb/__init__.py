"""NAS Parallel Benchmark work-alikes (BT, SP, LU) for the simulated machine.

Each benchmark is described as an ordered set of *kernels* — the exact
decomposition the paper uses (§4.1–§4.3) — with per-invocation flop counts,
data-region footprints and communication patterns taken from the NPB 2
specifications. Kernels run on the simulated machine as generator programs
(see :mod:`repro.simmachine`), so their cost reflects cache state, network
contention and load imbalance at the moment they run — which is what makes
isolated and in-context executions differ, i.e. what coupling measures.

The underlying numerical methods (5×5 block-tridiagonal solves, scalar
pentadiagonal solves, SSOR) are also implemented *for real* in
:mod:`repro.npb.numerics` and validated against SciPy; the simulator uses
their operation counts, and small classes can be executed end-to-end for
verification (:mod:`repro.npb.verify`).
"""

from repro.npb.base import Benchmark, KernelInstance, Layout
from repro.npb.bt import BT
from repro.npb.classes import (
    CLASS_NAMES,
    ProblemSize,
    iterations_for,
    problem_size,
)
from repro.npb.lu import LU
from repro.npb.sp import SP

BENCHMARKS = {"BT": BT, "SP": SP, "LU": LU}


def make_benchmark(name: str, problem_class: str, nprocs: int) -> Benchmark:
    """Instantiate a benchmark by name ("BT" | "SP" | "LU")."""
    try:
        cls = BENCHMARKS[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}"
        ) from None
    return cls(problem_class, nprocs)


__all__ = [
    "BENCHMARKS",
    "BT",
    "Benchmark",
    "CLASS_NAMES",
    "KernelInstance",
    "LU",
    "Layout",
    "ProblemSize",
    "SP",
    "iterations_for",
    "make_benchmark",
    "problem_size",
]

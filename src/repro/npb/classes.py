"""NPB problem classes: grid sizes and iteration counts.

Grid sizes per class follow the paper's Tables 1, 5 and 7; iteration counts
follow the NPB 2 specification (the paper confirms BT's: the loop kernels
are "called 60 times for Class S, and 200 times for Class W and A").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["CLASS_NAMES", "ProblemSize", "problem_size", "iterations_for"]

#: Class C (162^3) is beyond the paper's evaluation but part of the NPB
#: spec; it is included for larger scaling studies.
CLASS_NAMES = ("S", "W", "A", "B", "C")


@dataclass(frozen=True)
class ProblemSize:
    """One benchmark/class combination."""

    benchmark: str
    problem_class: str
    nx: int
    ny: int
    nz: int
    iterations: int

    @property
    def points(self) -> int:
        """Total grid points."""
        return self.nx * self.ny * self.nz

    @property
    def label(self) -> str:
        """Human-readable label like ``"BT class A (64 x 64 x 64)"``."""
        return (
            f"{self.benchmark} class {self.problem_class} "
            f"({self.nx} x {self.ny} x {self.nz})"
        )


# (nx, iterations) per class; all three benchmarks use cubic grids.
_GRIDS: dict[str, dict[str, tuple[int, int]]] = {
    "BT": {
        "S": (12, 60),
        "W": (32, 200),
        "A": (64, 200),
        "B": (102, 200),
        "C": (162, 200),
    },
    "SP": {
        "S": (12, 100),
        "W": (36, 400),
        "A": (64, 400),
        "B": (102, 400),
        "C": (162, 400),
    },
    "LU": {
        "S": (12, 50),
        "W": (33, 300),
        "A": (64, 250),
        "B": (102, 250),
        "C": (162, 250),
    },
}


def problem_size(benchmark: str, problem_class: str) -> ProblemSize:
    """Look up the grid and iteration count for a benchmark/class."""
    bench = benchmark.upper()
    if bench not in _GRIDS:
        raise ConfigurationError(
            f"unknown benchmark {benchmark!r}; choose from {sorted(_GRIDS)}"
        )
    cls = problem_class.upper()
    if cls not in _GRIDS[bench]:
        raise ConfigurationError(
            f"unknown class {problem_class!r} for {bench}; "
            f"choose from {sorted(_GRIDS[bench])}"
        )
    n, iters = _GRIDS[bench][cls]
    return ProblemSize(bench, cls, n, n, n, iters)


def iterations_for(benchmark: str, problem_class: str) -> int:
    """Number of main-loop iterations for a benchmark/class."""
    return problem_size(benchmark, problem_class).iterations

"""End-to-end verification of the executable numerics at class-S scale.

Each NPB work-alike has a mini-app that exercises the *real* numerical
method on the class-S grid:

* BT — ADI diffusion sweeps built from (block-)tridiagonal line solves;
* SP — the same sweep skeleton with pentadiagonal lines along x;
* LU — SSOR iterations on the 7-point operator.

``verify(benchmark)`` runs the mini-app and checks the solution against
analytic behaviour, mirroring NPB's own verification stage (the FINAL /
ERROR kernels). These are correctness gates for the operation-count
formulas the simulator charges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.npb.classes import problem_size
from repro.npb.numerics.grids import (
    Grid3D,
    adi_diffusion_step,
    manufactured_solution,
)
from repro.npb.numerics.ssor import apply_operator, ssor_solve
from repro.npb.numerics.tridiag import solve_pentadiagonal

__all__ = ["VerificationResult", "verify"]


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one mini-app verification run."""

    benchmark: str
    passed: bool
    error: float
    tolerance: float
    detail: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


def _grid_for(benchmark: str) -> Grid3D:
    size = problem_size(benchmark, "S")
    return Grid3D(size.nx, size.ny, size.nz)


def _verify_bt() -> VerificationResult:
    """ADI diffusion must decay the fundamental mode at the analytic rate."""
    grid = _grid_for("BT")
    u = manufactured_solution(grid)
    dt = 1e-3
    steps = 10
    work = u.copy()
    for _ in range(steps):
        work = adi_diffusion_step(work, grid, dt)
    # For u0 = product of sines, each 1-D implicit solve scales the mode by
    # 1 / (1 + r * 4 sin^2(pi h / 2) / h^2 * h^2) exactly; compare against
    # the discrete decay factor per axis.
    factor = 1.0
    for h in grid.spacing:
        lam = 4.0 / h**2 * np.sin(np.pi * h / 2.0) ** 2
        factor *= 1.0 / (1.0 + dt * lam)
    expected = u * factor**steps
    err = float(np.max(np.abs(work - expected)) / np.max(np.abs(expected)))
    tol = 1e-10
    return VerificationResult(
        "BT", err < tol, err, tol,
        f"ADI mode decay over {steps} steps (dt={dt})",
    )


def _verify_sp() -> VerificationResult:
    """Pentadiagonal line solve must reproduce a known solution."""
    grid = _grid_for("SP")
    n = grid.nx
    rng = np.random.default_rng(42)
    x_true = rng.standard_normal(n)
    # Diagonally dominant pentadiagonal system in LAPACK banded layout.
    bands = np.zeros((5, n))
    bands[0, 2:] = 0.3          # 2nd super
    bands[1, 1:] = -1.0         # 1st super
    bands[2, :] = 6.0           # main
    bands[3, : n - 1] = -1.0    # 1st sub
    bands[4, : n - 2] = 0.3     # 2nd sub
    full = np.zeros((n, n))
    for i in range(n):
        full[i, i] = bands[2, i]
        if i + 1 < n:
            full[i, i + 1] = bands[1, i + 1]
            full[i + 1, i] = bands[3, i]
        if i + 2 < n:
            full[i, i + 2] = bands[0, i + 2]
            full[i + 2, i] = bands[4, i]
    rhs = full @ x_true
    x = solve_pentadiagonal(bands, rhs)
    err = float(np.max(np.abs(x - x_true)) / np.max(np.abs(x_true)))
    tol = 1e-10
    return VerificationResult(
        "SP", err < tol, err, tol, f"pentadiagonal solve on n={n} line"
    )


def _verify_lu() -> VerificationResult:
    """SSOR must converge to the solution of the 7-point system."""
    grid = _grid_for("LU")
    diag, offdiag = 7.0, 1.0
    x_true = manufactured_solution(grid)
    rhs = apply_operator(x_true, diag, offdiag)
    u, history = ssor_solve(rhs, diag, offdiag, omega=1.1, iterations=30)
    err = float(np.max(np.abs(u - x_true)) / np.max(np.abs(x_true)))
    tol = 1e-6
    converging = all(b <= a * 1.0000001 for a, b in zip(history, history[1:]))
    return VerificationResult(
        "LU",
        err < tol and converging,
        err,
        tol,
        f"SSOR convergence over {len(history)} iterations "
        f"(residual {history[0]:.2e} -> {history[-1]:.2e})",
    )


def verify(benchmark: str) -> VerificationResult:
    """Run the mini-app verification for a benchmark (BT/SP/LU)."""
    name = benchmark.upper()
    if name == "BT":
        return _verify_bt()
    if name == "SP":
        return _verify_sp()
    if name == "LU":
        return _verify_lu()
    raise ConfigurationError(f"unknown benchmark {benchmark!r}")

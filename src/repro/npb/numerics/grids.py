"""3D grids, manufactured solutions, and ADI-style sweep drivers.

BT and SP both advance a 3D field by solving per-line implicit systems
"first in the x dimension, then in the y dimension, and finally in the z
dimension". :func:`adi_diffusion_step` reproduces exactly that structure —
a Douglas-style alternating-direction-implicit step for 3D diffusion —
using the line solvers from :mod:`repro.npb.numerics.tridiag`, so the
executable numerics have the same sweep skeleton as the simulated kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.npb.numerics.tridiag import solve_lines_along_axis

__all__ = [
    "Grid3D",
    "manufactured_solution",
    "adi_diffusion_step",
]


@dataclass(frozen=True)
class Grid3D:
    """A uniform cubic grid on the unit cube with Dirichlet boundaries."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        for name, n in (("nx", self.nx), ("ny", self.ny), ("nz", self.nz)):
            if n < 3:
                raise ConfigurationError(f"{name} must be >= 3, got {n}")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Interior point counts per axis."""
        return (self.nx, self.ny, self.nz)

    @property
    def spacing(self) -> tuple[float, float, float]:
        """Grid spacings (interior points; boundaries at 0 and 1)."""
        return (
            1.0 / (self.nx + 1),
            1.0 / (self.ny + 1),
            1.0 / (self.nz + 1),
        )

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Meshgrid arrays of the interior point coordinates."""
        hx, hy, hz = self.spacing
        x = hx * np.arange(1, self.nx + 1)
        y = hy * np.arange(1, self.ny + 1)
        z = hz * np.arange(1, self.nz + 1)
        return np.meshgrid(x, y, z, indexing="ij")


def manufactured_solution(grid: Grid3D) -> np.ndarray:
    """``sin(pi x) sin(pi y) sin(pi z)`` — vanishes on the boundary."""
    x, y, z = grid.coordinates()
    return np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)


def adi_diffusion_step(
    u: np.ndarray, grid: Grid3D, dt: float, kappa: float = 1.0
) -> np.ndarray:
    """One alternating-direction-implicit diffusion step (Douglas splitting).

    Advances ``du/dt = kappa * Laplacian(u)`` by ``dt`` with three
    one-dimensional implicit solves — the x, y, z sweep structure of
    BT/SP. Unconditionally stable; tests check decay of the manufactured
    mode at the analytic rate.
    """
    if dt <= 0 or kappa <= 0:
        raise ConfigurationError("dt and kappa must be > 0")
    if u.shape != grid.shape:
        raise ConfigurationError(
            f"field shape {u.shape} != grid shape {grid.shape}"
        )
    hx, hy, hz = grid.spacing
    work = u.astype(np.float64).copy()
    for axis, h in ((0, hx), (1, hy), (2, hz)):
        r = kappa * dt / h**2
        # (I - r * D2_axis) u_new = u_old, with D2 the 1-D second
        # difference: tridiagonal (-r, 1 + 2r, -r).
        work = solve_lines_along_axis(work, axis, -r, 1.0 + 2.0 * r, -r)
    return work

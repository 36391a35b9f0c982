"""Executable numerical methods behind the BT, SP and LU work-alikes.

The simulator charges kernels by operation counts; this subpackage contains
the *actual math* those counts describe, in NumPy:

* :mod:`repro.npb.numerics.tridiag` — 5x5 block-tridiagonal solves (BT's
  per-line systems) and scalar pentadiagonal solves (SP's);
* :mod:`repro.npb.numerics.ssor` — symmetric successive over-relaxation
  with lower/upper triangular sweeps (LU's SSOR iteration);
* :mod:`repro.npb.numerics.grids` — 3D grids, manufactured solutions, and
  ADI-style sweep drivers that string the line solvers together the way
  BT/SP do;
* :mod:`repro.npb.numerics.blockadi` — the coupled 5-component (5x5-block)
  ADI structure of BT, executable.

Everything is validated against SciPy (tests) and runnable end-to-end at
class-S scale (:mod:`repro.npb.verify`).
"""

from repro.npb.numerics.grids import (
    Grid3D,
    adi_diffusion_step,
    manufactured_solution,
)
from repro.npb.numerics.blockadi import block_adi_step
from repro.npb.numerics.ssor import ssor_solve, ssor_sweep
from repro.npb.numerics.tridiag import (
    solve_block_tridiagonal,
    solve_lines_along_axis,
    solve_pentadiagonal,
    solve_tridiagonal,
)

__all__ = [
    "Grid3D",
    "block_adi_step",
    "adi_diffusion_step",
    "manufactured_solution",
    "solve_block_tridiagonal",
    "solve_lines_along_axis",
    "solve_pentadiagonal",
    "solve_tridiagonal",
    "ssor_solve",
    "ssor_sweep",
]

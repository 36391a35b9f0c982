"""3D grids, ADI sweeps, and mini-app verification."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.npb import BENCHMARKS
from repro.npb.numerics.grids import (
    Grid3D,
    adi_diffusion_step,
    manufactured_solution,
)
from repro.npb.verify import verify


class TestGrid:
    def test_shape_and_spacing(self):
        grid = Grid3D(7, 7, 7)
        assert grid.shape == (7, 7, 7)
        assert grid.spacing == (0.125, 0.125, 0.125)

    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            Grid3D(2, 7, 7)

    def test_coordinates_interior(self):
        grid = Grid3D(3, 3, 3)
        x, y, z = grid.coordinates()
        assert x.min() > 0.0 and x.max() < 1.0
        assert x.shape == grid.shape


class TestADI:
    def test_decays_fundamental_mode(self):
        grid = Grid3D(9, 9, 9)
        u = manufactured_solution(grid)
        out = adi_diffusion_step(u, grid, dt=1e-3)
        assert np.max(np.abs(out)) < np.max(np.abs(u))
        # Shape preserved: still the same mode (no distortion).
        ratio = out / u
        assert np.ptp(ratio) < 1e-10

    def test_unconditionally_stable(self):
        grid = Grid3D(9, 9, 9)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(grid.shape)
        out = adi_diffusion_step(u, grid, dt=10.0)  # huge step
        assert np.max(np.abs(out)) <= np.max(np.abs(u)) + 1e-12

    def test_parameters_validated(self):
        grid = Grid3D(5, 5, 5)
        u = np.zeros(grid.shape)
        with pytest.raises(ConfigurationError):
            adi_diffusion_step(u, grid, dt=-1.0)
        with pytest.raises(ConfigurationError):
            adi_diffusion_step(np.zeros((4, 4, 4)), grid, dt=1e-3)


class TestVerification:
    """The class-S mini-apps (NPB's verification stage equivalent)."""

    @pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
    def test_passes(self, bench_name):
        result = verify(bench_name)
        assert result.passed, result.detail
        assert result.error < result.tolerance

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigurationError):
            verify("FT")

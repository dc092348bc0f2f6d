"""The TSV-free stack: on the spectral backend, whose homogenized
(cosine-basis) solve is exact there, and through the fast model, which
holds that homogenized solve alone."""

import dataclasses

import numpy as np
import pytest

from repro.benchmarks.suite import benchmark_names, spec_for
from repro.floorplan import objectives
from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.thermal.backends import spectral as spectral_module
from repro.thermal.backends.band import BandCholeskyBackend
from repro.thermal.backends.spectral import SpectralBackend, SpectralFactorization
from repro.thermal.stack import AMBIENT, build_stack
from repro.thermal.steady_state import SteadyStateSolver

from oracles.superlu import SuperLUBackend

GRIDS = [(5, 5), (8, 8), (16, 16), (32, 32), (24, 40), (17, 33)]


def _stack_config(num_dies: int) -> StackConfig:
    return dataclasses.replace(StackConfig.square(3000.0), num_dies=num_dies)


def _spectral_solver(cfg: StackConfig, grid: GridSpec) -> SteadyStateSolver:
    """The TSV-free stack on a spectral backend instance, which the
    automatic rule does not move."""
    return SteadyStateSolver(build_stack(cfg, grid), backend=SpectralBackend())


class TestAgainstSuperLU:
    @pytest.mark.parametrize("num_dies", [2, 3])
    @pytest.mark.parametrize("ny,nx", GRIDS)
    def test_die_map_rises_match(self, num_dies, ny, nx):
        cfg = _stack_config(num_dies)
        grid = GridSpec(cfg.outline, nx, ny)
        solver = _spectral_solver(cfg, grid)
        stack = solver.stack
        rng = np.random.default_rng(ny * 100 + nx)
        sets = [
            [rng.random(grid.shape) * 4.0 / grid.nx / grid.ny for _ in range(num_dies)],
            [np.zeros(grid.shape)] * (num_dies - 1) + [np.full(grid.shape, 1e-3)],
            [rng.random(grid.shape) * 1e-3] + [None] * (num_dies - 1),
        ]
        want = SteadyStateSolver(stack, backend=SuperLUBackend()).solve_many(sets)
        got = solver.solve_many(sets)
        # the homogenized stack is the stack: the preconditioner is exact
        assert solver.factorization.last_iterations <= 2
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.nodal.shape == w.nodal.shape
            for g_map, w_map in zip(g.die_maps, w.die_maps):
                rise = w_map - stack.ambient
                err = np.abs((g_map - stack.ambient) - rise).max()
                assert err <= 1e-9 * np.abs(rise).max()

    def test_empty_batch(self):
        cfg = _stack_config(2)
        solver = _spectral_solver(cfg, GridSpec(cfg.outline, 6, 6))
        assert solver.solve_many([]) == []

    def test_wrong_map_shape_rejected(self):
        cfg = _stack_config(2)
        solver = _spectral_solver(cfg, GridSpec(cfg.outline, 6, 6))
        with pytest.raises(ValueError, match="shape"):
            solver.solve_many([[np.zeros((6, 6)), np.zeros((5, 6))]])


class TestRefusals:
    """What the spectral factorization refuses, and that no suite stack's
    calibration leaves its exact path."""

    def test_mismatched_grid_shape_refused(self):
        cfg = _stack_config(2)
        stack = build_stack(cfg, GridSpec(cfg.outline, 8, 8))
        matrix = SteadyStateSolver(stack, backend=SpectralBackend()).network.conductance
        with pytest.raises(ValueError, match="does not match"):
            SpectralFactorization(matrix, (stack.num_layers, 8, 9))

    def test_one_iteration_cap_returns_a_finite_iterate(self, monkeypatch):
        """A PCG stopped by the iteration cap returns its last iterate."""
        monkeypatch.setattr(spectral_module, "_PCG_MAXITER", 1)
        cfg = _stack_config(2)
        stack = build_stack(cfg, GridSpec(cfg.outline, 8, 8))
        matrix = SteadyStateSolver(stack, backend=SpectralBackend()).network.conductance
        fact = SpectralFactorization(matrix, (stack.num_layers, 8, 8))
        assert np.all(np.isfinite(fact.solve(np.ones(matrix.shape[0]))))
        assert fact.last_iterations == 1

    @pytest.mark.parametrize("name", benchmark_names())
    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_every_suite_stack_calibrates_uniformly(self, name, num_dies):
        cfg = StackConfig(spec_for(name).outline, num_dies=num_dies)
        grid = GridSpec(cfg.outline, 7, 9)
        solver = _spectral_solver(cfg, grid)
        assert len(solver.stack.power_layers()) == num_dies
        solver.solve_many([[np.full(grid.shape, 1e-3)] * num_dies])
        assert solver.factorization.last_iterations <= 2


class TestCalibration:
    @pytest.fixture
    def cold(self, monkeypatch):
        monkeypatch.setattr(objectives, "_CALIBRATED_MODELS", {})

    @pytest.mark.parametrize(
        "cfg,nx,ny",
        [
            (StackConfig(spec_for("n100").outline), 32, 32),
            (_stack_config(3), 16, 16),
            (_stack_config(2), 5, 5),
            (_stack_config(1), 12, 12),
            (_stack_config(2), 24, 40),
            (_stack_config(3), 17, 9),
        ],
        ids=["n100-32", "3die-16", "2die-5", "1die-12", "2die-24x40", "3die-17x9"],
    )
    def test_estimate_matches_factorized_solve(self, cold, cfg, nx, ny):
        """``estimate`` (one homogenized solve, no CG) equals a band
        solve of ``build_stack(stack, grid)`` within 1e-9 of the largest
        rise, die by die."""
        grid = GridSpec(cfg.outline, nx, ny)
        model = objectives.calibrated_thermal_model(cfg, grid)
        want = SteadyStateSolver(build_stack(cfg, grid), backend=BandCholeskyBackend())
        rng = np.random.default_rng(nx * 100 + ny)
        sets = [
            [rng.random(grid.shape) * 4.0 / grid.nx / grid.ny for _ in range(cfg.num_dies)],
            [np.zeros(grid.shape)] * (cfg.num_dies - 1) + [np.full(grid.shape, 1e-3)],
        ]
        for maps in sets:
            got = model.estimate(maps)
            expected = want.solve(maps).die_maps
            assert len(got) == len(expected) == cfg.num_dies
            for g, w in zip(got, expected):
                rise = w - AMBIENT
                assert g.shape == grid.shape
                assert np.abs((g - AMBIENT) - rise).max() <= 1e-9 * np.abs(rise).max()

    def test_cold_calibration_factorizes_nothing(self, cold, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("calibration factorized a sparse system")

        monkeypatch.setattr(BandCholeskyBackend, "factor", refuse)
        cfg = _stack_config(2)
        model = objectives.calibrated_thermal_model(cfg, GridSpec(cfg.outline, 12, 12))
        assert model.num_dies == 2

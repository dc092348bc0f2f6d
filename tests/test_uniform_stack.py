"""The cosine-basis solver of laterally uniform stacks, and the fast
model's calibration through it."""

import dataclasses

import numpy as np
import pytest

from oracles.calibration import calibrated_thermal_model_factorized
from repro.benchmarks.suite import benchmark_names, spec_for
from repro.floorplan import objectives
from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.thermal.backends import SuperLUBackend
from repro.thermal.stack import TopologyConfig, build_stack
from repro.thermal.steady_state import SteadyStateSolver, UniformStackSolver

GRIDS = [(5, 5), (8, 8), (16, 16), (32, 32), (24, 40), (17, 33)]


def _stack_config(num_dies: int) -> StackConfig:
    return dataclasses.replace(StackConfig.square(3000.0), num_dies=num_dies)


class TestAgainstSuperLU:
    @pytest.mark.parametrize("num_dies", [2, 3])
    @pytest.mark.parametrize("ny,nx", GRIDS)
    def test_die_map_rises_match(self, num_dies, ny, nx):
        cfg = _stack_config(num_dies)
        grid = GridSpec(cfg.outline, nx, ny)
        stack = build_stack(cfg, grid)
        rng = np.random.default_rng(ny * 100 + nx)
        sets = [
            [rng.random(grid.shape) * 4.0 / grid.nx / grid.ny for _ in range(num_dies)],
            [np.zeros(grid.shape)] * (num_dies - 1) + [np.full(grid.shape, 1e-3)],
            [rng.random(grid.shape) * 1e-3] + [None] * (num_dies - 1),
        ]
        want = SteadyStateSolver(stack, backend="superlu").solve_many(sets)
        got = UniformStackSolver(stack).solve_many(sets)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.nodal.shape == w.nodal.shape
            for g_map, w_map in zip(g.die_maps, w.die_maps):
                rise = w_map - stack.ambient
                err = np.abs((g_map - stack.ambient) - rise).max()
                assert err <= 1e-9 * np.abs(rise).max()

    def test_empty_batch(self):
        cfg = _stack_config(2)
        solver = UniformStackSolver.for_config(cfg, GridSpec(cfg.outline, 6, 6))
        assert solver.solve_many([]) == []

    def test_wrong_map_shape_rejected(self):
        cfg = _stack_config(2)
        solver = UniformStackSolver.for_config(cfg, GridSpec(cfg.outline, 6, 6))
        with pytest.raises(ValueError, match="shape"):
            solver.solve_many([[np.zeros((6, 6)), np.zeros((5, 6))]])


class TestRefusals:
    def test_tsv_density_refused(self):
        cfg = _stack_config(2)
        grid = GridSpec(cfg.outline, 8, 8)
        density = np.zeros(grid.shape)
        density[2:4, 3:6] = 0.2
        with pytest.raises(ValueError, match="not laterally uniform"):
            UniformStackSolver(build_stack(cfg, grid, tsv_density=density))

    def test_non_uniform_bottom_resistance_refused(self):
        cfg = _stack_config(2)
        grid = GridSpec(cfg.outline, 8, 8)
        stack = build_stack(cfg, grid)
        r_bottom = np.full(grid.shape, stack.r_bottom_area)
        r_bottom[0, 0] *= 0.5
        with pytest.raises(ValueError, match="r_bottom_map"):
            UniformStackSolver(dataclasses.replace(stack, r_bottom_map=r_bottom))

    def test_interposer_stack_refused(self):
        cfg = _stack_config(2)
        grid = GridSpec(cfg.outline, 8, 8)
        stack = build_stack(cfg, grid, topology=TopologyConfig("2.5d"))
        with pytest.raises(ValueError, match="not laterally uniform"):
            UniformStackSolver(stack)

    @pytest.mark.parametrize("name", benchmark_names())
    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_every_suite_stack_calibrates_uniformly(self, name, num_dies):
        cfg = StackConfig(spec_for(name).outline, num_dies=num_dies)
        solver = UniformStackSolver.for_config(cfg, GridSpec(cfg.outline, 7, 9))
        assert len(solver.stack.power_layers()) == num_dies


class TestCalibration:
    @pytest.fixture
    def cold(self, monkeypatch):
        monkeypatch.setattr(objectives, "_CALIBRATED_MODELS", {})

    @pytest.mark.parametrize(
        "cfg,side",
        [
            (StackConfig(spec_for("n100").outline), 32),
            (_stack_config(3), 16),
            (_stack_config(2), 5),
        ],
        ids=["n100-32", "3die-16", "2die-5"],
    )
    def test_masks_match_factorized_calibration(self, cold, cfg, side):
        grid = GridSpec(cfg.outline, side, side)
        got = objectives.calibrated_thermal_model(cfg, grid)
        want = calibrated_thermal_model_factorized(cfg, grid)
        assert got.masks.keys() == want.masks.keys()
        for pair, mask in want.masks.items():
            for field in dataclasses.fields(mask):
                expected = getattr(mask, field.name)
                assert getattr(got.masks[pair], field.name) == pytest.approx(
                    expected, rel=1e-6
                ), (pair, field.name)

    def test_cold_calibration_factorizes_nothing(self, cold, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("calibration factorized a sparse system")

        monkeypatch.setattr(SuperLUBackend, "factor", refuse)
        cfg = _stack_config(2)
        model = objectives.calibrated_thermal_model(cfg, GridSpec(cfg.outline, 12, 12))
        assert model.num_dies == 2

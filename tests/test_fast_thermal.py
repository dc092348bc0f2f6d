"""Tests for the fast power-blurring thermal model and its calibration."""

import numpy as np
import pytest

from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.leakage.pearson import pearson
from repro.thermal.fast import FastThermalModel, MaskParams, calibrate
from repro.thermal.stack import build_stack
from repro.thermal.steady_state import SteadyStateSolver


class TestMaskParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaskParams(amplitude=-1, sigma=1)
        with pytest.raises(ValueError):
            MaskParams(amplitude=1, sigma=0)


class TestFastModel:
    def test_default_masks_cover_all_pairs(self):
        m = FastThermalModel(num_dies=2)
        assert set(m.masks) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_self_heating_stronger_than_cross(self):
        m = FastThermalModel(num_dies=2)
        assert m.masks[(0, 0)].amplitude > m.masks[(0, 1)].amplitude

    def test_estimate_shapes_and_baseline(self):
        m = FastThermalModel(num_dies=2)
        pm = np.zeros((16, 16))
        maps = m.estimate([pm, pm])
        assert len(maps) == 2
        assert all(np.allclose(t, m.ambient) for t in maps)

    def test_wrong_map_count_rejected(self):
        m = FastThermalModel(num_dies=2)
        with pytest.raises(ValueError):
            m.estimate([np.zeros((8, 8))])

    def test_point_source_heats_locally(self):
        m = FastThermalModel(num_dies=2)
        pm = np.zeros((32, 32))
        pm[16, 16] = 0.1
        t0 = m.estimate([pm, np.zeros((32, 32))])[0]
        rise = t0 - m.ambient
        assert rise[16, 16] == rise.max()
        assert rise[16, 16] > 0
        # far corner sees only the wide global component
        assert rise[0, 0] < rise[16, 16] / 2

    def test_tsv_attenuation_cools(self):
        m = FastThermalModel(num_dies=2)
        pm = np.zeros((32, 32))
        pm[16, 16] = 0.1
        density = np.zeros((32, 32))
        density[14:19, 14:19] = 1.0
        hot = m.estimate([pm, np.zeros((32, 32))])[0]
        cooled = m.estimate([pm, np.zeros((32, 32))], tsv_density=density)[0]
        assert cooled[16, 16] < hot[16, 16]

    def test_linearity(self):
        m = FastThermalModel(num_dies=2)
        pm = np.zeros((16, 16))
        pm[8, 8] = 0.05
        z = np.zeros((16, 16))
        r1 = m.estimate([pm, z])[0] - m.ambient
        r2 = m.estimate([2 * pm, z])[0] - m.ambient
        assert np.allclose(r2, 2 * r1, rtol=1e-9)


class TestCalibration:
    @pytest.fixture(scope="class")
    def setup(self):
        cfg = StackConfig.square(2000.0)
        grid = GridSpec(cfg.outline, 24, 24)
        solver = SteadyStateSolver(build_stack(cfg, grid))
        return cfg, grid, solver

    def test_calibrated_model_tracks_detailed(self, setup):
        """The fast estimate must correlate strongly with the detailed
        solution on module-scale (blotchy) power maps — its job is
        ranking layouts inside the SA loop."""
        from scipy.ndimage import gaussian_filter

        _, grid, solver = setup
        model = calibrate(solver, grid, samples=3, seed=1)
        rng = np.random.default_rng(5)
        pm0 = gaussian_filter(rng.random(grid.shape), 2.0, mode="nearest")
        pm1 = gaussian_filter(rng.random(grid.shape), 2.0, mode="nearest")
        pm0 *= 4.0 / pm0.sum()
        pm1 *= 4.0 / pm1.sum()
        detailed = solver.solve([pm0, pm1])
        fast = model.estimate([pm0, pm1])
        for d in range(2):
            r = pearson(detailed.die_maps[d], fast[d])
            assert r > 0.75, f"die {d}: fast/detailed correlation {r:.3f}"

    def test_calibrated_amplitudes_positive(self, setup):
        _, grid, solver = setup
        model = calibrate(solver, grid, samples=2, seed=2)
        for params in model.masks.values():
            assert params.amplitude > 0
            assert params.sigma > 0

    def test_self_amplitude_exceeds_cross(self, setup):
        _, grid, solver = setup
        model = calibrate(solver, grid, samples=3, seed=3)
        assert model.masks[(0, 0)].amplitude > model.masks[(0, 1)].amplitude
        assert model.masks[(1, 1)].amplitude > model.masks[(1, 0)].amplitude

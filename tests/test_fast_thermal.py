"""Tests for the fast power-blurring thermal model and its calibration."""

import numpy as np
import pytest

from oracles.blur import estimate_scipy, gaussian_filter_nearest
from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.leakage.pearson import pearson
from repro.thermal.fast import FastThermalModel, MaskParams, calibrate, gaussian_blur
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


#: sigmas of the blur oracle, up to kernels far wider than the 5x7 map
_SIGMAS = (0.5, 0.8, 1.0, 1.5, 2.5, 3.5, 5.0, 8.0, 10.667, 21.0, 21.3)

#: relative tolerance of the matrix-product blur against scipy's
#: ``gaussian_filter(mode="nearest")``, on blurred maps and on the fast
#: model's rise over ambient (measured: <= 2e-14).  The two sum the same
#: weights in different orders, so they agree to rounding, not bit for bit
BLUR_RTOL = 1e-13


def _assert_rises_close(model, got, want, name=""):
    for g, w in zip(got, want):
        np.testing.assert_allclose(
            g - model.ambient, w - model.ambient, rtol=BLUR_RTOL, atol=0.0,
            err_msg=name,
        )


class TestBlurAgainstScipy:
    """``gaussian_blur`` agrees with scipy's
    ``gaussian_filter(mode="nearest")`` within :data:`BLUR_RTOL`."""

    @pytest.mark.parametrize("shape", [(5, 7), (12, 12), (24, 50), (32, 32), (64, 64)])
    def test_matches_scipy(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        image = rng.random(shape)
        for sigma in _SIGMAS:
            got = gaussian_blur(image, sigma)
            np.testing.assert_allclose(
                got, gaussian_filter_nearest(image, sigma),
                rtol=BLUR_RTOL, atol=0.0, err_msg=str(sigma),
            )
            # C order, like scipy's output: later sums over it keep their order
            assert got.flags.c_contiguous

    def test_stack_blurs_each_map_alone(self):
        rng = np.random.default_rng(3)
        maps = rng.random((3, 12, 20))
        for sigma in (1.7, 21.3):
            got = gaussian_blur(maps, sigma)
            for k in range(3):
                assert np.array_equal(got[k], gaussian_blur(maps[k], sigma))
                np.testing.assert_allclose(
                    got[k], gaussian_filter_nearest(maps[k], sigma),
                    rtol=BLUR_RTOL, atol=0.0,
                )

    def test_blur_conserves_mass(self):
        """Replicated edges lose no kernel mass: every operator row sums
        to one, so a constant map stays constant."""
        for sigma in _SIGMAS:
            flat = gaussian_blur(np.full((6, 9), 2.5), sigma)
            np.testing.assert_allclose(flat, 2.5, rtol=1e-14, atol=0.0)


class TestEstimateAgainstScipy:
    """``estimate`` blurs each (source, sigma) once by precomputed
    operators, yet every map's rise over ambient equals the historical
    per-(source, target) scipy sum within :data:`BLUR_RTOL`."""

    @pytest.fixture(scope="class")
    def calibrated(self):
        cfg = StackConfig.square(2000.0)
        grid = GridSpec(cfg.outline, 16, 16)
        return calibrate(SteadyStateSolver(build_stack(cfg, grid)), grid, samples=2)

    @staticmethod
    def _inputs(num_dies, shape, seed):
        rng = np.random.default_rng(seed)
        maps = [rng.random(shape) * 1e-3 for _ in range(num_dies)]
        densities = {
            "none": None,
            "single": rng.random(shape),
            "per_pair": [rng.random(shape) for _ in range(max(1, num_dies - 1))],
        }
        return maps, densities

    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_default_masks(self, num_dies):
        model = FastThermalModel(num_dies=num_dies)
        maps, densities = self._inputs(num_dies, (20, 24), num_dies)
        for name, density in densities.items():
            got = model.estimate(maps, tsv_density=density)
            want = estimate_scipy(model, maps, tsv_density=density)
            _assert_rises_close(model, got, want, name)

    def test_calibrated_masks(self, calibrated):
        # calibrated local sigmas differ per (source, target) pair
        assert len({p.sigma for p in calibrated.masks.values()}) > 1
        maps, densities = self._inputs(2, (16, 16), 9)
        for name, density in densities.items():
            got = calibrated.estimate(maps, tsv_density=density)
            want = estimate_scipy(calibrated, maps, tsv_density=density)
            _assert_rises_close(calibrated, got, want, name)

    def test_zero_global_amplitude_skips_the_wide_blur(self):
        masks = {
            (s, t): MaskParams(amplitude=10.0 + s + t, sigma=1.5 + s, amplitude_global=0.0)
            for s in range(2)
            for t in range(2)
        }
        model = FastThermalModel(num_dies=2, masks=masks)
        maps, _ = self._inputs(2, (9, 11), 4)
        got = model.estimate(maps)
        want = estimate_scipy(model, maps)
        _assert_rises_close(model, got, want)
        # only the two local sigmas were built, once per axis length
        assert set(model._operators) == {(1.5, 9), (1.5, 11), (2.5, 9), (2.5, 11)}

    def test_operators_are_built_once_and_read_only(self):
        model = FastThermalModel(num_dies=2)
        maps, _ = self._inputs(2, (12, 12), 5)
        first = model.estimate(maps)
        operators = dict(model._operators)
        assert operators and all(not op.flags.writeable for op in operators.values())
        second = model.estimate(maps)
        assert all(model._operators[k] is op for k, op in operators.items())
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

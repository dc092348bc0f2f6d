"""Tests for the fast in-loop thermal model (the exact solve of the
TSV-free stack) and for the Gaussian blur of the exploration patterns.
The model's agreement with a sparse factorization is pinned in
``tests/test_uniform_stack.py``."""

import numpy as np
import pytest

from oracles.blur import gaussian_filter_nearest
from repro.floorplan.objectives import calibrated_thermal_model
from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.leakage.pearson import pearson
from repro.exploration.patterns import gaussian_blur
from repro.thermal.fast import FastThermalModel
from repro.thermal.stack import AMBIENT, build_stack
from repro.thermal.steady_state import SteadyStateSolver


def _model(n: int, side: float = 4000.0) -> FastThermalModel:
    cfg = StackConfig.square(side)
    return FastThermalModel(cfg, GridSpec(cfg.outline, n, n))


def _point(n: int, watts: float) -> np.ndarray:
    pm = np.zeros((n, n))
    pm[n // 2, n // 2] = watts
    return pm


class TestFastModel:
    def test_self_heating_stronger_than_cross(self):
        m = _model(32)
        rise = [t - AMBIENT for t in m.estimate([_point(32, 0.1), np.zeros((32, 32))])]
        assert rise[0][16, 16] > 5 * rise[1][16, 16] > 0

    def test_estimate_shapes_and_baseline(self):
        m = _model(16)
        pm = np.zeros((16, 16))
        maps = m.estimate([pm, pm])
        assert len(maps) == 2
        assert all(t.shape == (16, 16) for t in maps)
        assert all(np.allclose(t, AMBIENT, rtol=0.0, atol=1e-9) for t in maps)

    def test_wrong_map_count_rejected(self):
        m = _model(8)
        with pytest.raises(ValueError):
            m.estimate([np.zeros((8, 8))])

    def test_point_source_heats_locally(self):
        m = _model(32)
        rise = m.estimate([_point(32, 0.1), np.zeros((32, 32))])[0] - AMBIENT
        assert rise[16, 16] == rise.max()
        assert rise[16, 16] > 0
        # the far corner sees only the long-range spreading
        assert rise[0, 0] < rise[16, 16] / 2

    def test_linearity(self):
        m = _model(16)
        pm = _point(16, 0.05)
        z = np.zeros((16, 16))
        r1 = m.estimate([pm, z])[0] - AMBIENT
        r2 = m.estimate([2 * pm, z])[0] - AMBIENT
        assert np.allclose(r2, 2 * r1, rtol=1e-9)


class TestCalibration:
    """The memoized model of :func:`calibrated_thermal_model`."""

    @pytest.fixture(scope="class")
    def setup(self):
        cfg = StackConfig.square(2000.0)
        grid = GridSpec(cfg.outline, 24, 24)
        return cfg, grid, calibrated_thermal_model(cfg, grid)

    def test_calibrated_model_tracks_detailed(self, setup):
        """On module-scale (blotchy) power maps the estimate is the
        detailed solution of the same TSV-free stack (the paper's fast
        analysis ranks layouts; its heat-pipe effects are verified after
        the anneal)."""
        cfg, grid, model = setup
        rng = np.random.default_rng(5)
        pm0 = gaussian_filter_nearest(rng.random(grid.shape), 2.0)
        pm1 = gaussian_filter_nearest(rng.random(grid.shape), 2.0)
        pm0 *= 4.0 / pm0.sum()
        pm1 *= 4.0 / pm1.sum()
        detailed = SteadyStateSolver(build_stack(cfg, grid)).solve([pm0, pm1])
        fast = model.estimate([pm0, pm1])
        for d in range(2):
            r = pearson(detailed.die_maps[d], fast[d])
            assert r > 1.0 - 1e-9, f"die {d}: fast/detailed correlation {r:.12f}"
            assert pearson(pm0 if d == 0 else pm1, fast[d]) == pytest.approx(
                pearson(pm0 if d == 0 else pm1, detailed.die_maps[d]), rel=1e-9
            )

    def test_calibrated_amplitudes_positive(self, setup):
        """A one-cell source on either die raises every cell of every die."""
        _, grid, model = setup
        for die in range(2):
            maps = [np.zeros(grid.shape) for _ in range(2)]
            maps[die][3, 17] = 1e-3
            for t in model.estimate(maps):
                assert (t - AMBIENT).min() > 0

    def test_self_amplitude_exceeds_cross(self, setup):
        """A die's own peak response to its power exceeds the other die's."""
        _, grid, model = setup
        for die in range(2):
            maps = [np.zeros(grid.shape) for _ in range(2)]
            maps[die][12, 12] = 1e-2
            rise = [t - AMBIENT for t in model.estimate(maps)]
            assert rise[die].max() > rise[1 - die].max()


#: sigmas of the blur oracle, up to kernels far wider than the 5x7 map
_SIGMAS = (0.5, 0.8, 1.0, 1.5, 2.5, 3.5, 5.0, 8.0, 10.667, 21.0, 21.3)

#: relative tolerance of the matrix-product blur against scipy's
#: ``gaussian_filter(mode="nearest")`` (measured: <= 2e-14).  The two sum
#: the same weights in different orders, so they agree to rounding, not
#: bit for bit
BLUR_RTOL = 1e-13


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

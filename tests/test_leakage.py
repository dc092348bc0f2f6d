"""Tests for the leakage metrics: Eq. 1 correlation, Eq. 2 stability,
Eq. 3 spatial entropy, and the SVF cross-check of the attack tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles.pearson import local_correlation_map_loop
from oracles.svf import similarity_matrix, svf
from repro.leakage import entropy as entropy_module
from repro.leakage.entropy import nested_means_classes, spatial_entropy
from repro.leakage.pearson import die_correlation, local_correlation_map, pearson
from repro.leakage.stability import most_stable_bins, stability_map


class TestPearson:
    def test_perfect_correlation(self):
        a = np.arange(10.0)
        assert pearson(a, 2 * a + 3) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        a = np.arange(10.0)
        assert pearson(a, -a) == pytest.approx(-1.0)

    def test_constant_input_gives_zero(self):
        assert pearson(np.ones(10), np.arange(10.0)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            pearson(np.ones(1), np.ones(1))

    def test_die_correlation_requires_same_grid(self):
        with pytest.raises(ValueError):
            die_correlation(np.ones((4, 4)), np.ones((8, 8)))

    @given(
        hnp.arrays(np.float64, (24,), elements=st.floats(-100, 100)),
    )
    @settings(max_examples=40)
    def test_bounded(self, a):
        b = np.linspace(0, 1, 24)
        assert -1.0 - 1e-9 <= pearson(a, b) <= 1.0 + 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(50), rng.random(50)
        assert pearson(a, b) == pytest.approx(pearson(5 * a + 1, 0.1 * b - 7), rel=1e-9)

    def test_local_correlation_map(self):
        rng = np.random.default_rng(1)
        p = rng.random((12, 12))
        out = local_correlation_map(p, p + 0.01 * rng.random((12, 12)), window=3)
        assert out.shape == (12, 12)
        assert out.mean() > 0.9

    def test_local_correlation_map_matches_loop_reference(self):
        """The integral-image version must reproduce the O(n*w^2) loop."""
        rng = np.random.default_rng(7)
        for shape in ((12, 12), (9, 17), (5, 5)):
            for window in (1, 3, 6):
                p = rng.random(shape) * 1e-3
                t = 293.0 + 40.0 * rng.random(shape)  # realistic K offset
                fast = local_correlation_map(p, t, window=window)
                ref = local_correlation_map_loop(p, t, window=window)
                assert np.allclose(fast, ref, atol=1e-8), (shape, window)

    def test_local_correlation_map_high_dynamic_range_matches_loop(self):
        """One huge outlier must not zero out the map's cold windows.

        The moment decomposition cancels catastrophically in windows far
        from the outlier; those fall back to the exact two-pass formula.
        """
        rng = np.random.default_rng(3)
        p = rng.random((12, 12)) * 1e-3
        p[5, 5] = 1e3
        t = 293.0 + 40.0 * rng.random((12, 12)) + 0.05 * p
        fast = local_correlation_map(p, t, window=3)
        ref = local_correlation_map_loop(p, t, window=3)
        assert np.allclose(fast, ref, atol=1e-8)

    def test_local_correlation_map_constant_inputs_are_zero(self):
        p = np.ones((10, 10))
        t = np.full((10, 10), 300.0)
        assert np.all(local_correlation_map(p, t, window=2) == 0.0)

    def test_local_correlation_map_shape_mismatch(self):
        with pytest.raises(ValueError):
            local_correlation_map(np.ones((4, 4)), np.ones((5, 5)))


class TestStability:
    def _samples(self, m=10, shape=(6, 6), coupled=True, seed=0):
        rng = np.random.default_rng(seed)
        ps, ts = [], []
        for _ in range(m):
            p = rng.random(shape)
            ps.append(p)
            ts.append(2.0 * p + 0.01 * rng.random(shape) if coupled else rng.random(shape))
        return ps, ts

    def test_coupled_samples_highly_stable(self):
        ps, ts = self._samples(coupled=True)
        s = stability_map(ps, ts)
        assert np.abs(s).mean() > 0.95

    def test_uncoupled_samples_unstable(self):
        ps, ts = self._samples(coupled=False)
        s = stability_map(ps, ts)
        assert np.abs(s).mean() < 0.5

    def test_constant_bins_get_zero(self):
        ps = [np.ones((3, 3)) for _ in range(5)]
        ts = [np.full((3, 3), float(i)) for i in range(5)]
        s = stability_map(ps, ts)
        assert np.all(s == 0.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            stability_map([np.ones((2, 2))], [np.ones((2, 2))])

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            stability_map([np.ones((2, 2))] * 3, [np.ones((2, 2))] * 2)

    def test_most_stable_bins_ordering(self):
        s = np.zeros((4, 4))
        s[1, 2] = 0.9
        s[3, 0] = -0.8  # |.| counts
        s[0, 0] = 0.5
        bins = most_stable_bins(s, 2)
        assert bins[0] == (1, 2)
        assert bins[1] == (3, 0)

    def test_most_stable_bins_exclusion(self):
        s = np.zeros((3, 3))
        s[0, 0] = 1.0
        s[1, 1] = 0.5
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        assert most_stable_bins(s, 1, exclude=mask) == [(1, 1)]

    def test_exclusion_shape_check(self):
        with pytest.raises(ValueError):
            most_stable_bins(np.zeros((3, 3)), 1, exclude=np.zeros((2, 2), dtype=bool))


class TestNestedMeans:
    def test_constant_map_single_class(self):
        labels = nested_means_classes(np.ones((4, 4)))
        assert np.all(labels == 0)

    def test_bimodal_splits_into_two(self):
        vals = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        labels = nested_means_classes(vals)
        assert len(np.unique(labels)) == 2
        # labels ordered by class mean
        assert labels[0] == 0 and labels[-1] == 1

    def test_max_depth_caps_classes(self, monkeypatch):
        monkeypatch.setattr(entropy_module, "NESTED_MEANS_RTOL", 0.0)
        monkeypatch.setattr(entropy_module, "NESTED_MEANS_MAX_DEPTH", 3)
        rng = np.random.default_rng(0)
        vals = rng.random(256)
        labels = nested_means_classes(vals)
        assert len(np.unique(labels)) <= 8

    def test_labels_partition_by_value(self):
        """Nested means yields contiguous value ranges per class."""
        rng = np.random.default_rng(1)
        vals = rng.random(128)
        labels = nested_means_classes(vals)
        order = np.argsort(vals)
        sorted_labels = labels[order]
        # ascending class mean => labels non-decreasing over sorted values
        assert np.all(np.diff(sorted_labels) >= 0)


class TestSpatialEntropy:
    def test_uniform_map_zero_entropy(self):
        assert spatial_entropy(np.ones((8, 8))) == pytest.approx(0.0)

    def test_clustered_lower_than_interleaved(self):
        """Claramunt principle: clustering similar values lowers S."""
        half = np.zeros((8, 8))
        half[:, 4:] = 1.0  # two compact clusters
        checker = np.indices((8, 8)).sum(axis=0) % 2.0  # fully interleaved
        assert spatial_entropy(half) < spatial_entropy(checker)

    def test_as_printed_weight_flips_trend(self):
        half = np.zeros((8, 8))
        half[:, 4:] = 1.0
        checker = np.indices((8, 8)).sum(axis=0) % 2.0
        s_half = spatial_entropy(half, weight="as_printed")
        s_checker = spatial_entropy(checker, weight="as_printed")
        assert s_half > s_checker

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            spatial_entropy(np.ones((4, 4)), weight="bogus")

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            spatial_entropy(np.ones(16))

    def test_entropy_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            pm = rng.random((8, 8))
            assert spatial_entropy(pm) >= 0.0

    def test_paper_scale(self):
        """Entropies of realistic maps land in the paper's 1-4.5 band."""
        rng = np.random.default_rng(4)
        pm = rng.lognormal(0, 0.8, size=(32, 32))
        s = spatial_entropy(pm)
        assert 0.5 < s < 6.0


class TestSVF:
    def test_identical_traces_full_leakage(self):
        rng = np.random.default_rng(0)
        traces = [rng.random((4, 4)) for _ in range(6)]
        assert svf(traces, traces) == pytest.approx(1.0)

    def test_unrelated_traces_low(self):
        rng = np.random.default_rng(1)
        a = [rng.random((4, 4)) for _ in range(8)]
        b = [rng.random((4, 4)) for _ in range(8)]
        assert svf(a, b) < 0.6

    def test_clamped_at_zero(self):
        a = [np.full((2, 2), float(i)) for i in range(5)]
        b = list(reversed(a))
        assert svf(a, b) >= 0.0

    def test_similarity_matrix_properties(self):
        rng = np.random.default_rng(2)
        traces = [rng.random((3, 3)) for _ in range(5)]
        m = similarity_matrix(traces)
        assert m.shape == (5, 5)
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 0.0)

    def test_needs_two_snapshots(self):
        with pytest.raises(ValueError):
            similarity_matrix([np.ones((2, 2))])

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            svf([np.ones((2, 2))] * 3, [np.ones((2, 2))] * 4)

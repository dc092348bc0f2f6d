"""Tests for the Sec. 3 exploratory patterns and study."""

import numpy as np
import pytest

from oracles.blur import gaussian_filter_nearest
from repro.exploration import patterns
from repro.exploration.patterns import (
    POWER_PATTERNS,
    pattern_names,
    power_pattern,
    tsv_pattern,
)
from repro.exploration.study import run_exploration, summarize_findings
from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec


@pytest.fixture(scope="module")
def grid():
    cfg = StackConfig.square(2000.0)
    return cfg, GridSpec(cfg.outline, 16, 16)


class TestPowerPatterns:
    def test_all_patterns_conserve_power(self, grid):
        _, g = grid
        for name in POWER_PATTERNS:
            pm = power_pattern(name, g, 4.0, seed=1)
            assert pm.shape == g.shape
            assert pm.sum() == pytest.approx(4.0, rel=1e-9), name
            assert pm.min() >= 0.0, name

    def test_globally_uniform_is_flat(self, grid):
        _, g = grid
        pm = power_pattern("globally_uniform", g, 4.0)
        assert pm.std() == pytest.approx(0.0, abs=1e-12)

    def test_gradient_contrast_ordering(self, grid):
        """large > medium > small contrast (coefficient of variation)."""
        _, g = grid
        cv = {}
        for name in ("small_gradients", "medium_gradients", "large_gradients"):
            pm = power_pattern(name, g, 4.0, seed=2)
            cv[name] = pm.std() / pm.mean()
        assert cv["small_gradients"] < cv["medium_gradients"] < cv["large_gradients"]

    def test_locally_uniform_has_tiles(self, grid):
        _, g = grid
        pm = power_pattern("locally_uniform", g, 4.0, seed=3)
        # a 4x4 tiling leaves at most 16 distinct values
        assert len(np.unique(np.round(pm, 12))) <= 16

    def test_unknown_pattern(self, grid):
        _, g = grid
        with pytest.raises(KeyError):
            power_pattern("nope", g, 1.0)

    def test_deterministic_by_seed(self, grid):
        _, g = grid
        a = power_pattern("medium_gradients", g, 4.0, seed=7)
        b = power_pattern("medium_gradients", g, 4.0, seed=7)
        assert np.array_equal(a, b)

    def test_same_maps_as_scipy_blur(self, grid, monkeypatch):
        """The in-repo blur leaves every pattern within 1e-13 relative of
        the scipy ``gaussian_filter(mode="nearest")`` it replaced
        (measured: <= 3e-15)."""
        cfg, _ = grid
        grids = (GridSpec(cfg.outline, 16, 16), GridSpec(cfg.outline, 50, 24))
        cases = [(name, g, seed) for name in POWER_PATTERNS for g in grids for seed in (0, 1, 2)]
        got = [power_pattern(name, g, 4.0, seed=seed) for name, g, seed in cases]
        monkeypatch.setattr(patterns, "gaussian_blur", gaussian_filter_nearest)
        want = [power_pattern(name, g, 4.0, seed=seed) for name, g, seed in cases]
        for case, a, b in zip(cases, got, want):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0, err_msg=case[0])


class TestTSVPatterns:
    def test_pattern_names_complete(self):
        power_names, tsv_names = pattern_names()
        assert len(power_names) == 5
        assert len(tsv_names) == 6
        assert len(power_names) * len(tsv_names) == 30

    def test_none_pattern_empty(self, grid):
        cfg, g = grid
        tsvs, density = tsv_pattern("none", cfg, g)
        assert tsvs == []
        assert density.sum() == 0.0

    def test_max_density_full(self, grid):
        cfg, g = grid
        _, density = tsv_pattern("max_density", cfg, g)
        assert np.all(density == 1.0)

    def test_irregular_has_vias_inside_outline(self, grid):
        cfg, g = grid
        tsvs, density = tsv_pattern("irregular", cfg, g, seed=1)
        assert len(tsvs) > 50
        for t in tsvs[:20]:
            assert cfg.outline.contains_point(t.x, t.y)
        assert 0 < density.mean() < 1

    def test_islands_are_clustered(self, grid):
        cfg, g = grid
        _, density = tsv_pattern("islands", cfg, g, seed=2)
        # islands: some cells saturated, most empty
        assert (density > 0.8).sum() >= 1
        assert (density < 0.05).sum() > density.size / 2

    def test_unknown_pattern(self, grid):
        cfg, g = grid
        with pytest.raises(KeyError):
            tsv_pattern("hexagonal", cfg, g)


class TestStudy:
    @pytest.fixture(scope="class")
    def cells(self):
        return run_exploration(die_side_um=2000.0, grid_n=16, total_power_w=4.0, seed=2)

    def test_thirty_cells(self, cells):
        assert len(cells) == 30

    def test_finding_uniform_lowest(self, cells):
        """Sec. 3 (i): globally uniform power shows the lowest correlation."""
        s = summarize_findings(cells)
        assert s["uniform_power"] < 0.2
        assert s["uniform_power"] < s["large_gradients"]

    def test_finding_islands_decorrelate_gradients(self, cells):
        """TSV islands decorrelate realistic gradient power maps."""
        by = {(c.power_pattern, c.tsv_pattern): c for c in cells}
        for power in ("small_gradients", "medium_gradients"):
            none_r = abs(by[(power, "none")].r_bottom)
            island_r = abs(by[(power, "islands")].r_bottom)
            assert island_r < none_r, power

    def test_finding_regularity_raises_correlation(self, cells):
        """Adding regular TSVs to islands re-homogenizes and raises r."""
        by = {(c.power_pattern, c.tsv_pattern): c for c in cells}
        raised = 0
        for power in ("small_gradients", "medium_gradients", "large_gradients"):
            if abs(by[(power, "islands_regular")].r_bottom) >= abs(
                by[(power, "islands")].r_bottom
            ) - 0.02:
                raised += 1
        assert raised >= 2

    def test_peaks_physical(self, cells):
        for c in cells:
            assert 293.0 < c.peak_k < 600.0


class TestRunBatch:
    def test_serial_batch_runs_and_aggregates(self):
        from repro.api import JobSpec
        from repro.exploration.study import run_batch, summarize_batch

        jobs = [
            JobSpec(benchmark="n100", seed=s, iterations=40, grid=16)
            for s in range(2)
        ]
        metrics = run_batch(jobs, processes=1)
        assert len(metrics) == 2
        assert all(m.benchmark == "n100" for m in metrics)
        summary = summarize_batch(jobs, metrics)
        assert set(summary) == {("n100", "power_aware")}
        agg = summary[("n100", "power_aware")]
        assert agg["runtime_s"] > 0
        assert agg["wirelength_m"] == pytest.approx(
            np.mean([m.wirelength_m for m in metrics])
        )

    def test_process_pool_batch(self):
        from repro.api import JobSpec
        from repro.exploration.study import run_batch

        jobs = [
            JobSpec(benchmark="n100", seed=s, iterations=30, grid=16)
            for s in range(2)
        ]
        parallel = run_batch(jobs, processes=2)
        serial = run_batch(jobs, processes=1)
        # deterministic given seeds: pool and serial agree
        for a, b in zip(parallel, serial):
            assert a.correlation_r1 == pytest.approx(b.correlation_r1)
            assert a.wirelength_m == pytest.approx(b.wirelength_m)

    def test_empty_batch(self):
        from repro.exploration.study import run_batch

        assert run_batch([]) == []

    def test_summarize_batch_length_mismatch(self):
        from repro.api import JobSpec
        from repro.exploration.study import summarize_batch

        with pytest.raises(ValueError):
            summarize_batch([JobSpec(benchmark="n100")], [])

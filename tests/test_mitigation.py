"""Tests for Gaussian activity sampling and dummy-TSV insertion."""

import numpy as np
import pytest

from repro.layout.die import StackConfig
from repro.layout.floorplan import Floorplan3D
from repro.layout.grid import GridSpec
from repro.layout.module import Module, Placement
from repro.layout.tsv import TSVKind
from repro.mitigation.activity import sample_power_maps
from repro.mitigation import dummy_tsv
from repro.mitigation.dummy_tsv import MitigationConfig, insert_dummy_tsvs


def _hotspot_floorplan():
    """Two dies; die 0 carries a strong localized power imbalance."""
    mods = {
        "hot": Module("hot", 300, 300, power=3.0),
        "warm": Module("warm", 300, 300, power=0.6),
        "cool1": Module("cool1", 300, 300, power=0.2),
        "cool2": Module("cool2", 300, 300, power=0.2),
        "top1": Module("top1", 400, 400, power=1.0),
        "top2": Module("top2", 400, 400, power=0.9),
    }
    placements = {
        "hot": Placement(mods["hot"], 650, 650, die=0),
        "warm": Placement(mods["warm"], 50, 50, die=0),
        "cool1": Placement(mods["cool1"], 50, 650, die=0),
        "cool2": Placement(mods["cool2"], 650, 50, die=0),
        "top1": Placement(mods["top1"], 50, 50, die=1),
        "top2": Placement(mods["top2"], 550, 550, die=1),
    }
    stack = StackConfig.square(1000.0)
    return Floorplan3D(stack, placements)


def _one_module_per_die():
    """Three dies, one module each: a die's power total over its nominal
    total is that module's activity factor."""
    mods = {n: Module(n, 200, 200, power=1.0 + i) for i, n in enumerate("abc")}
    placements = {n: Placement(mods[n], 100, 100, die=i) for i, n in enumerate("abc")}
    return Floorplan3D(StackConfig.square(1000.0, num_dies=3), placements)


def _factors(sets, fp, grid):
    """Per-sample per-module activity factors of :func:`_one_module_per_die`."""
    nominal = [fp.power_map(d, grid).sum() for d in range(3)]
    return np.array([[m.sum() / n for m, n in zip(s, nominal)] for s in sets])


class TestActivitySampler:
    def test_mean_near_one(self):
        fp = _one_module_per_die()
        grid = GridSpec(fp.stack.outline, 4, 4)
        vals = _factors(sample_power_maps(fp, grid, count=300, sigma=0.1, seed=1), fp, grid)
        assert vals.mean() == pytest.approx(1.0, abs=0.02)
        assert vals.std() == pytest.approx(0.1, abs=0.02)

    def test_nonnegative(self):
        fp = _one_module_per_die()
        grid = GridSpec(fp.stack.outline, 4, 4)
        sets = sample_power_maps(fp, grid, count=200, sigma=2.0, seed=2)
        assert all((m >= 0.0).all() for s in sets for m in s)
        # sigma 2 clips about 31% of the factors at exactly zero
        assert (_factors(sets, fp, grid) == 0.0).any()

    def test_sigma_validation(self):
        fp = _one_module_per_die()
        with pytest.raises(ValueError):
            sample_power_maps(fp, GridSpec(fp.stack.outline, 4, 4), sigma=-0.1)

    def test_zero_sigma_deterministic(self):
        fp = _one_module_per_die()
        grid = GridSpec(fp.stack.outline, 4, 4)
        sets = sample_power_maps(fp, grid, count=3, sigma=0.0)
        for s in sets:
            for d, m in enumerate(s):
                np.testing.assert_allclose(m, fp.power_map(d, grid), rtol=1e-12, atol=0.0)

    def test_sample_power_maps_shapes(self):
        fp = _hotspot_floorplan()
        grid = GridSpec(fp.stack.outline, 8, 8)
        sets = sample_power_maps(fp, grid, count=5, seed=3)
        assert len(sets) == 5
        assert all(len(s) == 2 for s in sets)
        assert all(m.shape == (8, 8) for s in sets for m in s)

    def test_sample_power_maps_vary(self):
        fp = _hotspot_floorplan()
        grid = GridSpec(fp.stack.outline, 8, 8)
        sets = sample_power_maps(fp, grid, count=3, seed=4)
        assert not np.allclose(sets[0][0], sets[1][0])


class TestDummyTSVInsertion:
    def test_insertion_reduces_correlation(self):
        fp = _hotspot_floorplan()
        cfg = MitigationConfig(samples=20, tsvs_per_round=6, max_rounds=4,
                               grid_nx=12, grid_ny=12, seed=1)
        report = insert_dummy_tsvs(fp, cfg)
        assert report.final_correlation <= report.initial_correlation + 1e-9
        if report.inserted > 0:
            assert report.final_correlation < report.initial_correlation

    def test_inserted_tsvs_are_thermal(self):
        fp = _hotspot_floorplan()
        cfg = MitigationConfig(samples=15, tsvs_per_round=4, max_rounds=2,
                               grid_nx=12, grid_ny=12, seed=2)
        report = insert_dummy_tsvs(fp, cfg)
        for t in report.floorplan.thermal_tsvs:
            assert t.kind == TSVKind.THERMAL
        assert len(report.floorplan.thermal_tsvs) == report.inserted

    def test_original_floorplan_untouched(self):
        fp = _hotspot_floorplan()
        n_before = len(fp.tsvs)
        cfg = MitigationConfig(samples=10, tsvs_per_round=4, max_rounds=1,
                               grid_nx=12, grid_ny=12)
        insert_dummy_tsvs(fp, cfg)
        assert len(fp.tsvs) == n_before

    def test_sweet_spot_stops_insertion(self):
        """The loop must stop before max_rounds when correlation stops
        improving (the paper's stop criterion)."""
        fp = _hotspot_floorplan()
        cfg = MitigationConfig(samples=15, tsvs_per_round=8, max_rounds=12,
                               grid_nx=12, grid_ny=12, seed=3)
        report = insert_dummy_tsvs(fp, cfg)
        # trace is strictly decreasing by construction
        diffs = np.diff(report.correlation_trace)
        assert np.all(diffs < 0) or len(report.correlation_trace) == 1
        assert report.rounds <= 12

    def test_correlation_trace_starts_with_initial(self):
        fp = _hotspot_floorplan()
        cfg = MitigationConfig(samples=10, tsvs_per_round=4, max_rounds=1,
                               grid_nx=12, grid_ny=12)
        report = insert_dummy_tsvs(fp, cfg)
        assert report.initial_correlation == report.correlation_trace[0]
        assert len(report.final_correlations) == 2

    def test_target_die_selection(self):
        fp = _hotspot_floorplan()
        cfg = MitigationConfig(samples=10, tsvs_per_round=4, max_rounds=2,
                               grid_nx=12, grid_ny=12, target_die=0)
        report = insert_dummy_tsvs(fp, cfg)
        assert report.correlation_trace[0] > 0


class TestSpeculativeRounds:
    def test_greedy_single_candidate_still_works(self, monkeypatch):
        monkeypatch.setattr(dummy_tsv, "CANDIDATES_PER_ROUND", 1)
        fp = _hotspot_floorplan()
        cfg = MitigationConfig(samples=15, tsvs_per_round=6, max_rounds=4,
                               grid_nx=12, grid_ny=12, seed=1)
        report = insert_dummy_tsvs(fp, cfg)
        assert report.final_correlation <= report.initial_correlation + 1e-9
        diffs = np.diff(report.correlation_trace)
        assert np.all(diffs < 0) or len(report.correlation_trace) == 1

    def test_sample_count_validation(self):
        # validation happens at construction (the config round-trips over
        # the wire; a bad document must fail before a flow starts)
        with pytest.raises(ValueError):
            MitigationConfig(samples=0)

    def test_speculative_rounds_never_reuse_a_bin(self):
        """Accepted groups mark their bins occupied; no analysis bin may
        receive a dummy island twice across rounds."""
        from repro.layout.grid import GridSpec as _GridSpec

        fp = _hotspot_floorplan()
        cfg = MitigationConfig(samples=15, tsvs_per_round=4, max_rounds=6,
                               grid_nx=12, grid_ny=12, seed=3)
        report = insert_dummy_tsvs(fp, cfg)
        grid = _GridSpec(fp.stack.outline, cfg.grid_nx, cfg.grid_ny)
        per_cell = {}
        for tsv in report.floorplan.thermal_tsvs:
            per_cell.setdefault(grid.cell_of(tsv.x, tsv.y), 0)
            per_cell[grid.cell_of(tsv.x, tsv.y)] += 1
        # every occupied cell holds exactly one island's worth of vias
        assert len(set(per_cell.values())) <= 1

    def test_first_round_speculation_at_least_matches_greedy(self, monkeypatch):
        """Round 1 sees identical samples and incumbent in both setups, so
        the best-of-3 pick can only match or beat the greedy top group.
        (Later rounds diverge — different accepted stacks.)"""
        fp = _hotspot_floorplan()
        base = dict(samples=15, tsvs_per_round=6, max_rounds=1,
                    grid_nx=12, grid_ny=12, seed=1)
        monkeypatch.setattr(dummy_tsv, "CANDIDATES_PER_ROUND", 1)
        greedy = insert_dummy_tsvs(fp, MitigationConfig(**base))
        monkeypatch.setattr(dummy_tsv, "CANDIDATES_PER_ROUND", 3)
        spec = insert_dummy_tsvs(fp, MitigationConfig(**base))
        assert spec.correlation_trace[0] == pytest.approx(greedy.correlation_trace[0])
        if len(greedy.correlation_trace) > 1:
            assert len(spec.correlation_trace) > 1
            assert spec.correlation_trace[1] <= greedy.correlation_trace[1] + 1e-9


class TestFactorizationCount:
    """A candidate is one nominal solve, so only the patterns a round
    sweeps pay a band factorization; past 16x16 the candidates take a
    spectral setup instead."""

    @staticmethod
    def _count_factorizations(monkeypatch):
        from repro.thermal.backends.band import BandCholeskyBackend
        from repro.thermal.backends.spectral import SpectralBackend

        counts = {"band": 0, "spectral": 0}
        for cls in (BandCholeskyBackend, SpectralBackend):

            def counted(self, matrix, *, hints=None, _factor=cls.factor):
                counts[self.name] += 1
                return _factor(self, matrix, hints=hints)

            monkeypatch.setattr(cls, "factor", counted)
        return counts

    def test_only_swept_patterns_are_factorized(self, monkeypatch):
        counts = self._count_factorizations(monkeypatch)
        cfg = MitigationConfig(samples=15, tsvs_per_round=6, max_rounds=3,
                               grid_nx=20, grid_ny=20, seed=1)
        report = insert_dummy_tsvs(_hotspot_floorplan(), cfg)
        assert report.rounds >= 2  # an accepted pattern was swept
        assert counts["band"] == report.rounds
        assert counts["spectral"] == report.refactorized_candidates > 0

    def test_small_grids_keep_band(self, monkeypatch):
        counts = self._count_factorizations(monkeypatch)
        cfg = MitigationConfig(samples=15, tsvs_per_round=6, max_rounds=3,
                               grid_nx=12, grid_ny=12, seed=1)
        report = insert_dummy_tsvs(_hotspot_floorplan(), cfg)
        assert counts["spectral"] == 0
        # the accepted candidate's factors serve the next round's sweep
        assert counts["band"] == 1 + report.refactorized_candidates

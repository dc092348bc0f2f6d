"""SolverCache reuse, batched solves, and multi-die TSV density handling."""

import numpy as np
import pytest

from repro.core.flow import verify_correlations
from repro.layout.die import StackConfig
from repro.layout.floorplan import Floorplan3D
from repro.layout.grid import GridSpec
from repro.layout.module import Module, Placement
from repro.layout.tsv import TSV, TSVKind
from repro.thermal.fast import FastThermalModel
from repro.thermal.stack import TopologyConfig, build_stack, normalize_tsv_densities
from repro.thermal.steady_state import SolverCache, SteadyStateSolver


@pytest.fixture(scope="module")
def cfg_grid():
    cfg = StackConfig.square(1000.0)
    return cfg, GridSpec(cfg.outline, 8, 8)


class TestSolverCache:
    def test_hit_returns_same_solver(self, cfg_grid):
        cfg, grid = cfg_grid
        cache = SolverCache()
        density = np.zeros(grid.shape)
        density[2, 2] = 0.5
        a = cache.solver(cfg, grid, density)
        b = cache.solver(cfg, grid, density.copy())  # equal content, new array
        assert a is b
        assert cache.hits == 1 and cache.misses == 1

    def test_different_density_misses(self, cfg_grid):
        cfg, grid = cfg_grid
        cache = SolverCache()
        a = cache.solver(cfg, grid, np.zeros(grid.shape))
        other = np.zeros(grid.shape)
        other[1, 1] = 1.0
        b = cache.solver(cfg, grid, other)
        assert a is not b
        assert cache.misses == 2 and cache.hits == 0

    def test_different_stack_kwargs_miss(self, cfg_grid):
        """``topology`` is the one stack keyword the cache takes."""
        cfg, grid = cfg_grid
        cache = SolverCache()
        a = cache.solver(cfg, grid)
        b = cache.solver(cfg, grid, topology=TopologyConfig("2.5d"))
        assert a is not b
        assert cache.misses == 2

    def test_none_equals_missing_density(self, cfg_grid):
        cfg, grid = cfg_grid
        cache = SolverCache()
        a = cache.solver(cfg, grid, None)
        b = cache.solver(cfg, grid)
        assert a is b and cache.hits == 1

    def test_lru_eviction(self, cfg_grid):
        cfg, grid = cfg_grid
        cache = SolverCache(maxsize=2)
        def density(v):
            d = np.zeros(grid.shape)
            d[0, 0] = v
            return d
        a = cache.solver(cfg, grid, density(0.1))
        cache.solver(cfg, grid, density(0.2))
        cache.solver(cfg, grid, density(0.3))  # evicts 0.1
        assert len(cache) == 2
        a2 = cache.solver(cfg, grid, density(0.1))
        assert a2 is not a  # was evicted, rebuilt
        assert cache.misses == 4

    def test_clear(self, cfg_grid):
        cfg, grid = cfg_grid
        cache = SolverCache()
        cache.solver(cfg, grid)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_fresh_cache_argument_is_honored(self, cfg_grid):
        """Regression: ``cache or default`` discarded a caller's empty
        cache (SolverCache defines __len__, so a fresh one is falsy)."""
        cfg, grid = cfg_grid
        m = Module("m0", 100.0, 100.0, power=1.0)
        fp = Floorplan3D(
            stack=cfg,
            placements={"m0": Placement(module=m, x=100.0, y=100.0, die=0)},
        )
        mine = SolverCache()
        verify_correlations(fp, grid, cache=mine)
        assert mine.misses == 1 and len(mine) == 1


class TestSolveMany:
    def test_matches_sequential_solves(self, cfg_grid):
        cfg, grid = cfg_grid
        solver = SteadyStateSolver(build_stack(cfg, grid))
        rng = np.random.default_rng(4)
        sets = [
            [rng.random(grid.shape) * 1e-3, rng.random(grid.shape) * 1e-3]
            for _ in range(7)
        ]
        batched = solver.solve_many(sets)
        for maps, res in zip(sets, batched):
            ref = solver.solve(maps)
            assert np.allclose(res.nodal, ref.nodal, atol=1e-9)
            for a, b in zip(res.die_maps, ref.die_maps):
                assert np.allclose(a, b, atol=1e-9)

    def test_empty_batch(self, cfg_grid):
        cfg, grid = cfg_grid
        solver = SteadyStateSolver(build_stack(cfg, grid))
        assert solver.solve_many([]) == []


class TestMultiDieDensities:
    def test_normalize_forms(self, cfg_grid):
        cfg, grid = cfg_grid
        d = np.zeros(grid.shape)
        assert normalize_tsv_densities(cfg, grid, None) == {}
        assert set(normalize_tsv_densities(cfg, grid, d)) == {(0, 1)}
        assert set(normalize_tsv_densities(cfg, grid, {(0, 1): d})) == {(0, 1)}

    def test_normalize_rejects_bad_input(self, cfg_grid):
        cfg, grid = cfg_grid
        with pytest.raises(ValueError):
            normalize_tsv_densities(cfg, grid, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            normalize_tsv_densities(cfg, grid, {(0, 2): np.zeros(grid.shape)})
        with pytest.raises(TypeError):
            normalize_tsv_densities(cfg, grid, 0.5)

    def test_normalize_rejects_underlength_sequence(self):
        """Regression: a short sequence used to zip-truncate, silently
        leaving upper interfaces TSV-free.  Sequences are no accepted form
        at all now: the pairs a map belongs to are always explicit."""
        cfg = StackConfig.square(1000.0, num_dies=3)
        grid = GridSpec(cfg.outline, 8, 8)
        with pytest.raises(TypeError):
            normalize_tsv_densities(cfg, grid, [np.zeros(grid.shape)])

    def test_three_die_upper_interface_modifies_layers(self):
        cfg = StackConfig.square(1000.0, num_dies=3)
        grid = GridSpec(cfg.outline, 8, 8)
        density = np.zeros(grid.shape)
        density[4, 4] = 1.0
        stack = build_stack(cfg, grid, tsv_density={(1, 2): density})
        bond12 = stack.layers[stack.layer_index("bond12")]
        bulk2 = stack.layers[stack.layer_index("die2_bulk")]
        assert bond12.k_vertical[4, 4] > 50 * bond12.k_vertical[0, 0]
        assert bulk2.k_vertical[4, 4] > bulk2.k_vertical[0, 0]
        # the (0, 1) interface stays pristine
        bond01 = stack.layers[stack.layer_index("bond01")]
        assert bond01.k_vertical[4, 4] == pytest.approx(bond01.k_vertical[0, 0])
        # only (0, 1) TSVs strengthen the package path
        assert stack.r_bottom_map[4, 4] == pytest.approx(stack.r_bottom_map[0, 0])

    def test_solve_floorplan_sees_upper_pair_tsvs(self):
        """Regression: TSVs between dies 1-2 used to be silently dropped."""
        cfg = StackConfig.square(400.0, num_dies=3)
        grid = GridSpec(cfg.outline, 8, 8)
        m = Module("m0", 100.0, 100.0, power=2.0)
        placements = {"m0": Placement(module=m, x=150.0, y=150.0, die=0)}
        fp = Floorplan3D(stack=cfg, placements=placements)
        # a dense island of thermal TSVs between dies 1 and 2 only
        fp.tsvs = [
            TSV(150.0 + 10 * i, 150.0 + 10 * j, 1, 2, kind=TSVKind.THERMAL,
                diameter=20.0, keepout=5.0)
            for i in range(6) for j in range(6)
        ]
        densities = fp.tsv_densities(grid)
        assert set(densities) == {(0, 1), (1, 2)}
        assert densities[(0, 1)].sum() == pytest.approx(0.0)
        assert densities[(1, 2)].sum() > 0.0

        _, _, with_tsvs, _ = verify_correlations(fp, grid, cache=SolverCache())
        bare = fp.copy()
        bare.tsvs = []
        _, _, without, _ = verify_correlations(bare, grid, cache=SolverCache())
        # the TSVs must change the thermal solution; under the old
        # (0, 1)-only code both solves used identical uniform stacks
        assert not np.allclose(np.stack(with_tsvs), np.stack(without))


class TestFastModelDensities:
    """The fast model takes no TSV densities (it solves the TSV-free
    stack); what is left is its check of every die's power map."""

    def test_shape_validation_covers_every_die(self):
        cfg = StackConfig.square(1000.0)
        model = FastThermalModel(cfg, GridSpec(cfg.outline, 8, 8))
        good = np.zeros((8, 8))
        with pytest.raises(ValueError):
            model.estimate([good])  # wrong count
        with pytest.raises(ValueError):
            model.estimate([good, np.zeros((4, 4))])  # mismatched later die
        with pytest.raises(ValueError):
            model.estimate([np.zeros((4, 4)), good])  # mismatched first die

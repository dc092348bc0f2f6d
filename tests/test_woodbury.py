"""Low-rank Woodbury solves for perturbed TSV patterns (the opt-in
``incremental=True`` path).

Oracle tests pin :class:`WoodburySolver` against fresh factorizations of
the perturbed stacks (the refactorize-per-candidate path it replaces),
and the fallback guards — rank crossover and the near-singular-core
residual probe — against their boundary conditions.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.thermal.rc_network import ThermalNetwork, assemble, low_rank_update
from repro.thermal.stack import build_stack
from repro.thermal.steady_state import (
    SolverCache,
    SteadyStateSolver,
    WoodburySolver,
    woodbury_crossover_rank,
)

#: acceptance bar: Woodbury-path solves match fresh factorizations to
#: this *relative* error (they typically land around 1e-14)
ORACLE_RTOL = 1e-10


def _stack_pair(num_dies: int, grid_n: int = 16, bins=((4, 6, 4, 8),)):
    """(grid, base stack, perturbed stack) with dummy-TSV-like density bumps.

    ``bins`` lists (row0, row1, col0, col1) density rectangles; for
    stacks above two dies the perturbation lands on the (1, 2) interface
    as well, exercising the upper bond/bulk layers.
    """
    cfg = StackConfig.square(2000.0, num_dies=num_dies)
    grid = GridSpec(cfg.outline, grid_n, grid_n)
    base = build_stack(cfg, grid)
    density = np.zeros(grid.shape)
    for r0, r1, c0, c1 in bins:
        density[r0:r1, c0:c1] = 0.55
    if num_dies == 2:
        tsv_density = density
    else:
        upper = np.zeros(grid.shape)
        upper[1:3, 1:4] = 0.4
        tsv_density = {(0, 1): density, (1, 2): upper}
    modified = build_stack(cfg, grid, tsv_density=tsv_density)
    return grid, cfg, base, modified


def _power_maps(grid, num_dies, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random(grid.shape) * 2.0 / grid.nx / grid.ny for _ in range(num_dies)]


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestLowRankUpdate:
    def test_support_is_localized(self):
        grid, _, base, modified = _stack_pair(2)
        update = low_rank_update(assemble(base), assemble(modified))
        # 8 perturbed bins touch the pierced bond/bulk cells, their
        # lateral neighbours, the vertical neighbours above/below, and
        # the boundary nodes — tens of nodes, not thousands
        assert 0 < update.rank < 200
        assert update.core.shape == (update.rank, update.rank)
        # the conductance delta is symmetric, like G itself
        np.testing.assert_allclose(update.core, update.core.T)

    def test_identical_networks_have_rank_zero(self):
        grid, _, base, _ = _stack_pair(2)
        net = assemble(base)
        update = low_rank_update(net, assemble(base))
        assert update.rank == 0

    def test_reconstructs_exact_delta(self):
        _, _, base, modified = _stack_pair(2)
        net_a, net_b = assemble(base), assemble(modified)
        update = low_rank_update(net_a, net_b)
        n = net_a.num_nodes
        u = sp.csc_matrix(
            (np.ones(update.rank), (update.indices, np.arange(update.rank))),
            shape=(n, update.rank),
        )
        rebuilt = net_a.conductance + u @ sp.csc_matrix(update.core) @ u.T
        assert abs(rebuilt - net_b.conductance).max() == 0.0

    def test_shape_mismatch_rejected(self):
        _, cfg, base, _ = _stack_pair(2)
        other_grid = GridSpec(cfg.outline, 8, 8)
        with pytest.raises(ValueError):
            low_rank_update(assemble(base), assemble(build_stack(cfg, other_grid)))


class TestWoodburyOracle:
    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_solve_matches_fresh_factorization(self, num_dies):
        grid, _, base_stack, mod_stack = _stack_pair(num_dies)
        base = SteadyStateSolver(base_stack)
        # pin the crossover high: these tests check the low-rank math, so
        # the policy (tested separately) must not reroute small grids
        woodbury = WoodburySolver(base, mod_stack, crossover_rank=10_000)
        assert woodbury.fallback_reason is None
        fresh = SteadyStateSolver(mod_stack)
        pm = _power_maps(grid, num_dies)
        a, b = woodbury.solve(pm), fresh.solve(pm)
        assert _rel_err(a.nodal, b.nodal) <= ORACLE_RTOL
        for da, db in zip(a.die_maps, b.die_maps):
            assert _rel_err(da, db) <= ORACLE_RTOL

    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_solve_many_matches_fresh_factorization(self, num_dies):
        grid, _, base_stack, mod_stack = _stack_pair(num_dies)
        base = SteadyStateSolver(base_stack)
        woodbury = WoodburySolver(base, mod_stack, crossover_rank=10_000)
        assert woodbury.fallback_reason is None
        fresh = SteadyStateSolver(mod_stack)
        sets = [_power_maps(grid, num_dies, seed=s) for s in range(6)]
        for ra, rb in zip(woodbury.solve_many(sets), fresh.solve_many(sets)):
            assert _rel_err(ra.nodal, rb.nodal) <= ORACLE_RTOL

    def test_rank_zero_update_solves_through_base(self):
        grid, cfg, base_stack, _ = _stack_pair(2)
        base = SteadyStateSolver(base_stack)
        woodbury = WoodburySolver(base, build_stack(cfg, grid))
        assert woodbury.update.rank == 0
        assert woodbury.is_low_rank
        pm = _power_maps(grid, 2)
        np.testing.assert_array_equal(
            woodbury.solve(pm).nodal, base.solve(pm).nodal
        )

    def test_unwraps_woodbury_base(self):
        """Chaining onto a Woodbury base must ride the true factorization."""
        grid, cfg, base_stack, mod_stack = _stack_pair(2)
        base = SteadyStateSolver(base_stack)
        first = WoodburySolver(base, mod_stack, crossover_rank=10_000)
        density = np.zeros(grid.shape)
        density[4:8, 4:8] = 0.55
        density[12:14, 2:5] = 0.3
        second_stack = build_stack(cfg, grid, tsv_density=density)
        second = WoodburySolver(first, second_stack, crossover_rank=10_000)
        assert second.base is base
        fresh = SteadyStateSolver(second_stack)
        pm = _power_maps(grid, 2)
        assert _rel_err(second.solve(pm).nodal, fresh.solve(pm).nodal) <= ORACLE_RTOL


class TestFallbackBoundary:
    def test_rank_crossover_falls_back_bit_comparable(self):
        """A candidate touching enough bins to exceed the crossover must
        take the full-refactorization path and produce metrics
        bit-comparable to a fresh solver (identical factorization)."""
        grid, cfg, base_stack, _ = _stack_pair(2)
        base = SteadyStateSolver(base_stack)
        dense = np.full(grid.shape, 0.4)  # every bin touched: rank ~ N/layers
        mod_stack = build_stack(cfg, grid, tsv_density=dense)
        woodbury = WoodburySolver(base, mod_stack)
        assert woodbury.fallback_reason == "rank"
        assert not woodbury.is_low_rank
        assert woodbury.update.rank > woodbury.crossover_rank
        fresh = SteadyStateSolver(mod_stack)
        pm = _power_maps(grid, 2)
        np.testing.assert_array_equal(woodbury.solve(pm).nodal, fresh.solve(pm).nodal)
        for ra, rb in zip(
            woodbury.solve_many([pm]), fresh.solve_many([pm])
        ):
            np.testing.assert_array_equal(ra.nodal, rb.nodal)

    def test_explicit_crossover_rank_forces_fallback(self):
        grid, _, base_stack, mod_stack = _stack_pair(2)
        base = SteadyStateSolver(base_stack)
        low_rank = WoodburySolver(base, mod_stack)
        assert low_rank.is_low_rank
        forced = WoodburySolver(
            base, mod_stack, crossover_rank=low_rank.update.rank - 1
        )
        assert forced.fallback_reason == "rank"

    def test_near_singular_core_trips_residual_probe(self):
        """A crafted update that drives G' toward singularity must be
        rejected by the probe solve, not returned as garbage."""
        grid, _, base_stack, _ = _stack_pair(2)
        base = SteadyStateSolver(base_stack)
        n = base.network.num_nodes
        index = n // 2
        e = np.zeros(n)
        e[index] = 1.0
        w = float(base.factorization.solve(e)[index])  # (G^-1)_ii
        # G' = G - (1 - eps)/w * e_i e_i^T makes I + C·W ~ eps: the dense
        # core is numerically singular and the Woodbury correction
        # explodes — exactly what the probe residual must catch
        scale = -(1.0 - 1e-13) / w
        delta = sp.csc_matrix(([scale], ([index], [index])), shape=(n, n))
        crafted = ThermalNetwork(
            stack=base_stack,
            conductance=(base.network.conductance + delta).tocsc(),
            capacitance=base.network.capacitance,
            boundary=base.network.boundary,
        )
        woodbury = WoodburySolver(base, base_stack, network=crafted)
        assert woodbury.fallback_reason == "residual"
        assert not woodbury.is_low_rank

    def test_rebase_returns_full_solver_for_the_perturbed_stack(self):
        grid, _, base_stack, mod_stack = _stack_pair(2)
        base = SteadyStateSolver(base_stack)
        woodbury = WoodburySolver(base, mod_stack, crossover_rank=10_000)
        assert woodbury.is_low_rank
        full = woodbury.rebase()
        assert isinstance(full, SteadyStateSolver)
        pm = _power_maps(grid, 2)
        np.testing.assert_array_equal(
            full.solve(pm).nodal, SteadyStateSolver(mod_stack).solve(pm).nodal
        )


class TestCrossoverModel:
    def test_grows_with_network_size(self):
        assert (
            woodbury_crossover_rank(40960)
            > woodbury_crossover_rank(10240)
            > woodbury_crossover_rank(2560)
            >= 1
        )

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WOODBURY_CROSSOVER", "7")
        assert woodbury_crossover_rank(40960) == 7
        monkeypatch.setenv("REPRO_WOODBURY_CROSSOVER", "nope")
        with pytest.raises(ValueError):
            woodbury_crossover_rank(40960)


class TestSolverCacheIntegration:
    def test_incremental_entries_are_cached_and_shared(self):
        grid, cfg, base_stack, _ = _stack_pair(2)
        cache = SolverCache(maxsize=4)
        base = cache.solver(cfg, grid)
        density = np.zeros(grid.shape)
        density[4:6, 4:8] = 0.55
        first = cache.incremental_solver(
            cfg, grid, density, base=base, crossover_rank=10_000
        )
        assert isinstance(first, WoodburySolver)
        assert first.is_low_rank
        again = cache.incremental_solver(cfg, grid, density, base=base)
        assert again is first
        # the key space is shared with full-solver requests, but .solver()
        # guarantees an independent factorization: the Woodbury entry is
        # upgraded in place (once), never returned as-is — otherwise an
        # incremental-vs-full cross-check through a warm cache would
        # silently compare the Woodbury path against itself
        upgraded = cache.solver(cfg, grid, density)
        assert not isinstance(upgraded, WoodburySolver)
        assert cache.solver(cfg, grid, density) is upgraded
        pm = _power_maps(grid, 2)
        assert _rel_err(first.solve(pm).nodal, upgraded.solve(pm).nodal) <= ORACLE_RTOL

    def test_incremental_solver_for_floorplan_matches_full(self):
        from repro.layout.floorplan import Floorplan3D
        from repro.layout.module import Module, Placement
        from repro.layout.tsv import TSVKind, place_island

        cfg = StackConfig.square(1000.0)
        grid = GridSpec(cfg.outline, 12, 12)
        mods = {
            "a": Module("a", 400, 400, power=2.0),
            "b": Module("b", 400, 400, power=1.0),
        }
        fp = Floorplan3D(cfg, {
            "a": Placement(mods["a"], 50, 50, die=0),
            "b": Placement(mods["b"], 500, 500, die=1),
        })
        cache = SolverCache(maxsize=4)
        base = cache.solver_for_floorplan(fp, grid)
        candidate = fp.copy()
        candidate.tsvs.extend(
            place_island(grid.cell_rect(5, 5), kind=TSVKind.THERMAL,
                         diameter=20.0, keepout=5.0)
        )
        woodbury = cache.incremental_solver_for_floorplan(
            candidate, grid, base=base
        )
        fresh = SteadyStateSolver(
            build_stack(cfg, grid, tsv_density=candidate.tsv_densities(grid))
        )
        pm = _power_maps(grid, 2)
        assert _rel_err(woodbury.solve(pm).nodal, fresh.solve(pm).nodal) <= ORACLE_RTOL


class TestLoopEquivalence:
    def test_mitigation_incremental_matches_oracle(self, monkeypatch):
        """The Woodbury-path loop must pick the same insertions and report
        the same trace as the refactorize-per-candidate oracle."""
        from tests.test_mitigation import _hotspot_floorplan

        from repro.mitigation import dummy_tsv
        from repro.mitigation.dummy_tsv import MitigationConfig, insert_dummy_tsvs

        monkeypatch.setattr(dummy_tsv, "CANDIDATES_PER_ROUND", 2)
        fp = _hotspot_floorplan()
        knobs = dict(samples=12, tsvs_per_round=4, max_rounds=3,
                     grid_nx=16, grid_ny=16, seed=1)
        inc = insert_dummy_tsvs(fp, MitigationConfig(**knobs, incremental=True))
        full = insert_dummy_tsvs(fp, MitigationConfig(**knobs, incremental=False))
        assert inc.inserted == full.inserted
        assert inc.rounds == full.rounds
        np.testing.assert_allclose(
            inc.correlation_trace, full.correlation_trace, rtol=0, atol=1e-9
        )
        # at 16x16 a 4-bin group stays under the crossover: the loop must
        # actually have used the incremental path, not just fallen back
        assert inc.woodbury_candidates > 0
        assert full.woodbury_candidates == 0
        assert full.refactorized_candidates >= full.rounds

    def test_proactive_rebaseline_keeps_candidates_low_rank(self, monkeypatch):
        """Once committed insertions approach the threshold, the loop must
        pay ONE re-baseline factorization — not let every candidate of
        the next round fall back and factorize independently."""
        from tests.test_mitigation import _hotspot_floorplan

        from repro.mitigation import dummy_tsv
        from repro.mitigation.dummy_tsv import MitigationConfig, insert_dummy_tsvs

        monkeypatch.setattr(dummy_tsv, "CANDIDATES_PER_ROUND", 2)
        fp = _hotspot_floorplan()
        report = insert_dummy_tsvs(fp, MitigationConfig(
            samples=12, tsvs_per_round=4, max_rounds=4, grid_nx=16, grid_ny=16,
            seed=1, incremental=True, rebase_rank=80,
        ))
        assert report.woodbury_candidates > 0
        if report.rounds >= 2 and report.inserted > 0:
            assert report.rebaselines >= 1
        # every candidate stayed on the cheap path; re-baselines happened
        # between rounds instead of inside them
        assert report.refactorized_candidates == 0

    def test_exploration_incremental_matches_oracle(self):
        from repro.exploration.study import run_exploration

        inc = run_exploration(grid_n=12, seed=3, cache=SolverCache(maxsize=8),
                              incremental=True)
        full = run_exploration(grid_n=12, seed=3, cache=SolverCache(maxsize=8),
                               incremental=False)
        assert len(inc) == len(full)
        for a, b in zip(inc, full):
            assert a.power_pattern == b.power_pattern
            assert a.tsv_pattern == b.tsv_pattern
            assert a.r_bottom == pytest.approx(b.r_bottom, abs=1e-10)
            assert a.r_top == pytest.approx(b.r_top, abs=1e-10)
            assert a.peak_k == pytest.approx(b.peak_k, abs=1e-8)

    def test_exploration_oracle_run_upgrades_shared_cache_entries(self):
        """An incremental=False run over a cache warmed by an incremental
        run must not be served Woodbury entries — the oracle path exists
        to be independent of the code it cross-checks."""
        from repro.exploration.study import run_exploration

        cache = SolverCache(maxsize=16)
        run_exploration(grid_n=12, seed=3, cache=cache, incremental=True)
        # (at this tiny grid the patterns all exceed the crossover, so the
        # entries are fallback-mode Woodbury wrappers — the upgrade
        # contract applies to any wrapper, low-rank or not)
        assert any(
            isinstance(s, WoodburySolver) for s in cache._entries.values()
        )
        run_exploration(grid_n=12, seed=3, cache=cache, incremental=False)
        assert not any(
            isinstance(s, WoodburySolver) for s in cache._entries.values()
        )

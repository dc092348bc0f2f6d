"""Tests for the cost evaluator, compiled netlist, and annealer."""

import numpy as np
import pytest

from oracles.hpwl import total_hpwl
from repro.benchmarks import generator, load
from repro.benchmarks.generator import BenchmarkSpec, generate_circuit
from repro.floorplan.annealer import (
    TEMPERATURE_FLOOR,
    AnnealChain,
    AnnealConfig,
    AnnealResult,
    _initial_temperature,
    anneal,
)
from repro.floorplan.moves import apply_random_move
from repro.floorplan import objectives
from repro.floorplan.objectives import (
    CostBreakdown,
    CostEvaluator,
    FloorplanMode,
    ObjectiveWeights,
)
from repro.floorplan.seqpair import LayoutState
from repro.layout.die import StackConfig
from repro.layout.net import TSV_LENGTH_UM, CompiledNetlist


@pytest.fixture(scope="module")
def tiny_circuit():
    spec = BenchmarkSpec("tiny", 0, 16, 1, 40, 8, 0.25, 1.2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "SEED", 5)
        circ = generate_circuit(spec)
    stack = StackConfig(spec.outline)
    return circ, stack


class TestCompiledNetlist:
    def test_matches_reference_hpwl(self, tiny_circuit):
        """Vectorized wirelength must equal the per-net reference."""
        circ, stack = tiny_circuit
        rng = np.random.default_rng(0)
        state = LayoutState.initial(circ.modules, stack, rng)
        fp = state.realize(circ.nets, circ.terminals, place_tsvs=False)
        ref_wl, ref_cross = total_hpwl(circ.nets, fp.placements, circ.terminals, TSV_LENGTH_UM)

        nl = CompiledNetlist(list(circ.modules), circ.nets, circ.terminals)
        wl, cross = nl.wirelength(*fp.module_centers(nl.module_names))
        assert wl == pytest.approx(ref_wl, rel=1e-12)
        assert cross == ref_cross

    @pytest.mark.parametrize("name", ["n100", "ibm01"])
    def test_floorplan_wirelength_matches_object_hpwl(self, name):
        """The record's wirelength (numpy sum over compiled nets) within
        1e-12 relative of the per-net loop, crossings equal."""
        circ, stack = load(name)
        rng = np.random.default_rng(3)
        state = LayoutState.initial(circ.modules, stack, rng)
        for _ in range(3):
            for _ in range(20):
                apply_random_move(state, rng)
            fp = state.realize(circ.nets, circ.terminals, place_tsvs=False)
            wl, cross = fp.wirelength()
            ref_wl, ref_cross = total_hpwl(circ.nets, fp.placements, circ.terminals, TSV_LENGTH_UM)
            assert wl == pytest.approx(ref_wl, rel=1e-12, abs=0.0)
            assert cross == ref_cross

    def test_empty_netlist(self):
        nl = CompiledNetlist(["a"], [], {})
        wl, cross = nl.wirelength(np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.int64))
        assert wl == 0.0 and cross == 0


class TestWeights:
    def test_mode_presets(self):
        pa = ObjectiveWeights.for_mode(FloorplanMode.POWER_AWARE)
        tsc = ObjectiveWeights.for_mode(FloorplanMode.TSC_AWARE)
        assert pa.correlation == 0.0 and pa.entropy == 0.0
        assert tsc.correlation > 0 and tsc.entropy > 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ObjectiveWeights.for_mode("yolo")

    def test_total_uses_scales(self):
        bd = CostBreakdown(area=1.0, wirelength=100.0)
        w = ObjectiveWeights()
        t1 = bd.total(w, {"wirelength": 100.0, "area": 1.0})
        t2 = bd.total(w, {"wirelength": 1.0, "area": 1.0})
        assert t2 > t1


class TestCostEvaluator:
    def test_evaluate_produces_all_terms(self, tiny_circuit):
        circ, stack = tiny_circuit
        ev = CostEvaluator(
            stack, circ.nets, circ.terminals, mode=FloorplanMode.TSC_AWARE,
            grid_nx=16, grid_ny=16,
        )
        rng = np.random.default_rng(1)
        state = LayoutState.initial(circ.modules, stack, rng)
        bd = ev.evaluate(state, force_full=True)
        assert bd.wirelength > 0
        assert bd.temperature > 290
        assert bd.power > 0
        assert bd.volumes >= 1
        assert bd.correlation != 0.0
        assert bd.entropy > 0

    def test_calibration_resets_iteration_clock(self, tiny_circuit):
        circ, stack = tiny_circuit
        ev = CostEvaluator(
            stack, circ.nets, circ.terminals, grid_nx=16, grid_ny=16,
        )
        rng = np.random.default_rng(2)
        state = LayoutState.initial(circ.modules, stack, rng)
        scales = ev.calibrate_scales(state, rng, samples=4)
        assert scales["wirelength"] > 0
        assert ev.scales["outline"] == 1.0

    def test_die_assignment_term_prefers_hot_on_top(self, tiny_circuit):
        circ, stack = tiny_circuit
        ev = CostEvaluator(
            stack, circ.nets, circ.terminals, grid_nx=16, grid_ny=16,
        )
        rng = np.random.default_rng(3)
        state = LayoutState.initial(circ.modules, stack, rng)
        bd_biased = ev.evaluate(state, force_full=True)
        # flip all modules to the bottom die -> worse die-assignment term
        flipped = state.copy()
        flipped.die[:] = 0
        flipped.pairs[0].s1 = list(range(len(flipped.modules)))
        flipped.pairs[0].s2 = list(range(len(flipped.modules)))
        flipped.pairs[1].s1 = []
        flipped.pairs[1].s2 = []
        bd_flipped = ev.evaluate(flipped, force_full=True)
        assert bd_flipped.die_assignment > bd_biased.die_assignment

    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_random_walk_matches_realized_floorplan(self, num_dies, monkeypatch):
        """Over a few hundred moves with a mixed accept/reject lineage,
        every candidate's cheap terms equal its realized floorplan's, and
        its whole breakdown equals a fresh evaluator's: a score depends on
        the state alone, not on what the evaluator scored before."""
        spec = BenchmarkSpec("tiny", 0, 14, 1, 40, 8, 0.25, 1.2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generator, "SEED", 5)
            circ = generate_circuit(spec)
        stack = StackConfig(spec.outline, num_dies=num_dies)
        outline = stack.outline

        # every slow term refreshes on every call, so a fresh evaluator
        # scores exactly what a long-lived one does
        for cadence in ("TIMING_EVERY", "THERMAL_EVERY", "ASSIGNMENT_EVERY"):
            monkeypatch.setattr(objectives, cadence, 1)

        def evaluator():
            return CostEvaluator(
                stack, circ.nets, circ.terminals, mode=FloorplanMode.TSC_AWARE,
                grid_nx=8, grid_ny=8,
            )

        ev = evaluator()
        rng = np.random.default_rng(11)
        state = LayoutState.initial(circ.modules, stack, rng)
        ev.evaluate(state, force_full=True)
        accepted = 0
        for step in range(300):
            candidate = state.copy()
            apply_random_move(candidate, rng)
            bd = ev.evaluate(candidate)
            fp = candidate.realize(circ.nets, circ.terminals, place_tsvs=False)
            wl, crossings = fp.wirelength()
            assert bd.wirelength == pytest.approx(wl, rel=1e-9), step
            assert bd.tsv_crossings == crossings, step
            _, _, extents = candidate.pack()
            over = sum(
                max(0.0, w / outline.w - 1.0) + max(0.0, h / outline.h - 1.0)
                for w, h in extents
            )
            fill = sum(
                (min(w, outline.w) / outline.w) * (min(h, outline.h) / outline.h)
                for w, h in extents
            )
            assert bd.outline == pytest.approx(over, rel=1e-12, abs=1e-12), step
            assert bd.area == pytest.approx(fill / len(extents), rel=1e-12), step
            assert bd == evaluator().evaluate(candidate), step
            if rng.random() < 0.5:  # accept
                state = candidate
                accepted += 1
        assert 0 < accepted < 300


class TestAnnealer:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="iterations"):
            AnnealConfig(iterations=0)

    @pytest.mark.parametrize(
        "grid", [dict(grid_nx=1, grid_ny=1), dict(grid_nx=0), dict(grid_ny=-2, grid_nx=3)]
    )
    def test_grid_below_two_cells_rejected(self, grid):
        with pytest.raises(ValueError, match="at least two cells"):
            AnnealConfig(**grid)

    def test_smallest_grid_anneals(self, tiny_circuit):
        """Two cells is the bound: the TSC anneal's in-loop correlation
        runs on either orientation."""
        circ, stack = tiny_circuit
        for nx, ny in ((1, 2), (2, 1)):
            cfg = AnnealConfig(iterations=20, seed=1, calibration_samples=2,
                               grid_nx=nx, grid_ny=ny)
            result = anneal(circ.modules, stack, circ.nets, circ.terminals,
                            mode=FloorplanMode.TSC_AWARE, config=cfg)
            assert result.iterations == 20
            assert np.isfinite(result.breakdown.correlation)

    def test_anneal_improves_over_initial(self, tiny_circuit):
        circ, stack = tiny_circuit
        cfg = AnnealConfig(iterations=200, seed=4, calibration_samples=6,
                           grid_nx=16, grid_ny=16)
        res = anneal(circ.modules, stack, circ.nets, circ.terminals,
                     mode=FloorplanMode.POWER_AWARE, config=cfg)
        assert isinstance(res, AnnealResult)
        assert res.accepted > 0
        assert len(res.history) == 200
        # the outline violation must collapse toward feasibility
        assert res.breakdown.outline < 0.5

    def test_anneal_reaches_feasibility_small(self, tiny_circuit):
        circ, stack = tiny_circuit
        cfg = AnnealConfig(iterations=800, seed=5, calibration_samples=6,
                           grid_nx=16, grid_ny=16)
        res = anneal(circ.modules, stack, circ.nets, circ.terminals,
                     mode=FloorplanMode.POWER_AWARE, config=cfg)
        assert res.feasible, f"outline violation {res.breakdown.outline}"
        assert res.floorplan.validate() == []

    def test_anneal_deterministic_given_seed(self, tiny_circuit):
        circ, stack = tiny_circuit
        cfg = AnnealConfig(iterations=120, seed=9, calibration_samples=4,
                           grid_nx=16, grid_ny=16)
        r1 = anneal(circ.modules, stack, circ.nets, circ.terminals, config=cfg)
        r2 = anneal(circ.modules, stack, circ.nets, circ.terminals, config=cfg)
        assert r1.cost == pytest.approx(r2.cost)
        assert {n: p.rect for n, p in r1.floorplan.placements.items()} == {
            n: p.rect for n, p in r2.floorplan.placements.items()
        }

    def test_tsc_mode_tracks_leakage_snapshot(self, tiny_circuit, monkeypatch):
        """A TSC-mode anneal scores leakage: the result's breakdown
        carries a nonzero power-temperature correlation."""
        circ, stack = tiny_circuit
        monkeypatch.setattr(objectives, "THERMAL_EVERY", 2)
        cfg = AnnealConfig(iterations=300, seed=6, calibration_samples=6,
                           grid_nx=16, grid_ny=16)
        res = anneal(circ.modules, stack, circ.nets, circ.terminals,
                     mode=FloorplanMode.TSC_AWARE, config=cfg)
        assert res.breakdown.correlation != 0.0

    def test_reported_cost_uses_original_weights(self, tiny_circuit):
        """Regression: the final cost must be scored under the mode's
        weights, not the 6x-boosted compaction weights.

        A run too short to reach feasibility ends with outline > 0, where
        the boosted weight historically inflated the reported cost by the
        boosted outline contribution.
        """
        circ, stack = tiny_circuit
        original = ObjectiveWeights.for_mode(FloorplanMode.POWER_AWARE)
        cfg = AnnealConfig(iterations=20, seed=11, calibration_samples=4,
                           grid_nx=16, grid_ny=16)
        chain = AnnealChain.start(circ.modules, stack, nets=circ.nets,
                                  terminals=circ.terminals, config=cfg)
        chain.run(cfg.iterations)
        res = chain.finalize()
        ev = chain.evaluator
        # the evaluator is back on the mode's weights ...
        assert ev.weights == original
        # ... and the reported cost is the original-weight total of the
        # reported breakdown (fails with the boost applied whenever the
        # run ends infeasible)
        assert res.cost == pytest.approx(ev.total_cost(res.breakdown))
        if not res.feasible:
            boosted = ev.total_cost(res.breakdown) + (
                original.outline * 5.0 * res.breakdown.outline
            )
            assert res.cost < boosted
        assert res.cost == anneal(circ.modules, stack, circ.nets,
                                  circ.terminals, config=cfg).cost

    def test_chain_matches_anneal_in_slices(self, tiny_circuit):
        """Advancing a chain in arbitrary slices equals one straight run."""
        circ, stack = tiny_circuit
        cfg = AnnealConfig(iterations=60, seed=13, calibration_samples=4,
                           grid_nx=16, grid_ny=16)
        ref = anneal(circ.modules, stack, circ.nets, circ.terminals, config=cfg)
        chain = AnnealChain.start(circ.modules, stack, nets=circ.nets,
                                  terminals=circ.terminals, config=cfg)
        for moves in (7, 13, 20, 20):
            chain.run(moves)
        res = chain.finalize()
        assert res.history == ref.history
        assert res.accepted == ref.accepted
        assert res.cost == ref.cost


class TestInitialTemperature:
    def test_no_uphill_deltas_defaults_to_one(self):
        assert _initial_temperature([], 0.5) == 1.0
        assert _initial_temperature([-1.0, 0.0, -0.2], 0.5) == 1.0

    def test_normal_case(self):
        # mean uphill delta 2.0 accepted with p=0.5 -> T = 2 / ln 2
        t = _initial_temperature([2.0, -1.0], 0.5)
        assert t == pytest.approx(2.0 / np.log(2.0))

    def test_acceptance_rounded_to_one_stays_finite(self):
        """Regression: log(1.0) == 0 historically produced T = inf."""
        t = _initial_temperature([1.0, 3.0], 1.0)
        assert np.isfinite(t) and t > 0

    def test_acceptance_rounded_to_zero_stays_finite(self):
        t = _initial_temperature([1.0], 0.0)
        assert np.isfinite(t) and t >= TEMPERATURE_FLOOR

    def test_tiny_deltas_clamped_to_floor(self):
        """Regression: ~0 probe deltas froze the chain at a subnormal T."""
        t = _initial_temperature([1e-300], 0.5)
        assert t == TEMPERATURE_FLOOR

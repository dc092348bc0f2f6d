"""Incremental (dirty-die) cost evaluation against the force_full oracle.

The incremental path repacks only the dies a move touched and reuses
every other memoized term; these tests assert it is *numerically
indistinguishable* (1e-9) from a from-scratch evaluation over long
random move sequences, including accept/reject lineages, module
migrations between dies, and three-die stacks.
"""

import numpy as np
import pytest

from repro.benchmarks.generator import BenchmarkSpec, generate_circuit
from repro.floorplan.annealer import AnnealConfig, anneal
from repro.floorplan.moves import MOVE_NAMES, MoveRecord, apply_random_move
from repro.floorplan.objectives import (
    CostBreakdown,
    CostEvaluator,
    FloorplanMode,
    ObjectiveWeights,
)
from repro.floorplan.seqpair import LayoutState
from repro.layout.die import StackConfig
from repro.thermal.fast import FastThermalModel

FIELDS = tuple(CostBreakdown._FIELDS) + ("tsv_crossings",)


def _circuit(num_modules=14, seed=5):
    spec = BenchmarkSpec("tiny", 0, num_modules, 1, 40, 8, 0.25, 1.2, seed=seed)
    circ = generate_circuit(spec)
    return circ, spec.outline


def _evaluators(circ, stack, mode=FloorplanMode.TSC_AWARE):
    """A matched (incremental, oracle) evaluator pair refreshing every term
    every iteration, so every cost component is exercised each move."""
    kwargs = dict(
        mode=mode,
        grid_nx=8,
        grid_ny=8,
        timing_every=1,
        thermal_every=1,
        assignment_every=1,
        thermal_model=FastThermalModel(num_dies=stack.num_dies),
        auto_calibrate=False,
    )
    inc = CostEvaluator(stack, circ.nets, circ.terminals, **kwargs)
    full = CostEvaluator(stack, circ.nets, circ.terminals, **kwargs)
    return inc, full


class _FullEvaluator(CostEvaluator):
    """The oracle: every move recomputes from scratch, whatever the annealer
    passes as ``dirty_dies``."""

    def evaluate(self, state, force_full=False, dirty_dies=None):
        return super().evaluate(state, force_full=True)


def _assert_matches(bd_inc, bd_full, context):
    for field in FIELDS:
        assert getattr(bd_inc, field) == pytest.approx(
            getattr(bd_full, field), abs=1e-9
        ), (context, field)


class TestMoveRecords:
    def test_record_is_still_a_tag(self):
        rec = MoveRecord("swap_s1", {0})
        assert rec == "swap_s1"
        assert rec in MOVE_NAMES
        assert rec.dies == frozenset({0})

    def test_moves_report_touched_dies(self):
        circ, outline = _circuit()
        stack = StackConfig(outline)
        rng = np.random.default_rng(3)
        state = LayoutState.initial(circ.modules, stack, rng)
        for _ in range(200):
            before = dict(state.die_of)
            rec = apply_random_move(state, rng)
            assert rec in MOVE_NAMES
            changed = {
                d
                for name in state.modules
                for d in (before[name], state.die_of[name])
                if before[name] != state.die_of[name]
            }
            # every die whose membership changed must be reported dirty
            assert changed <= set(rec.dies)
            for d in rec.dies:
                assert 0 <= d < stack.num_dies


class TestIncrementalMatchesOracle:
    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_random_walk_matches_force_full(self, num_dies):
        """A few hundred random moves with a mixed accept/reject lineage."""
        circ, outline = _circuit()
        stack = StackConfig(outline, num_dies=num_dies)
        inc, full = _evaluators(circ, stack)
        rng = np.random.default_rng(11)
        state = LayoutState.initial(circ.modules, stack, rng)

        bd_i = inc.evaluate(state, force_full=True)
        inc.commit()
        bd_f = full.evaluate(state, force_full=True)
        _assert_matches(bd_i, bd_f, "initial")

        for step in range(300):
            candidate = state.copy()
            rec = apply_random_move(candidate, rng)
            bd_i = inc.evaluate(candidate, dirty_dies=rec.dies)
            bd_f = full.evaluate(candidate, force_full=True)
            _assert_matches(bd_i, bd_f, f"step {step} ({rec})")
            if rng.random() < 0.5:  # accept
                state = candidate
                inc.commit()
        assert inc.eval_stats["incremental"] == 300

    def test_power_aware_mode_matches_too(self):
        circ, outline = _circuit(num_modules=10, seed=9)
        stack = StackConfig(outline)
        inc, full = _evaluators(circ, stack, mode=FloorplanMode.POWER_AWARE)
        rng = np.random.default_rng(2)
        state = LayoutState.initial(circ.modules, stack, rng)
        inc.evaluate(state, force_full=True)
        inc.commit()
        full.evaluate(state, force_full=True)
        for step in range(120):
            candidate = state.copy()
            rec = apply_random_move(candidate, rng)
            bd_i = inc.evaluate(candidate, dirty_dies=rec.dies)
            bd_f = full.evaluate(candidate, force_full=True)
            _assert_matches(bd_i, bd_f, f"step {step}")
            state = candidate
            inc.commit()

    def test_dirty_dies_without_baseline_falls_back_to_full(self):
        circ, outline = _circuit(num_modules=8, seed=1)
        stack = StackConfig(outline)
        inc, _ = _evaluators(circ, stack)
        rng = np.random.default_rng(0)
        state = LayoutState.initial(circ.modules, stack, rng)
        inc.evaluate(state, dirty_dies={0})  # nothing committed yet
        assert inc.eval_stats["full"] == 1
        assert inc.eval_stats["incremental"] == 0


class TestAnnealerEvaluatorHygiene:
    def test_anneal_restores_evaluator_weights(self):
        """Regression: the compaction phase used to multiply the outline
        weight 6x *permanently*, compounding on every anneal() call that
        reused an evaluator."""
        circ, outline = _circuit(num_modules=8, seed=3)
        stack = StackConfig(outline)
        evaluator = CostEvaluator(
            stack,
            circ.nets,
            circ.terminals,
            grid_nx=8,
            grid_ny=8,
            thermal_model=FastThermalModel(num_dies=2),
            auto_calibrate=False,
        )
        original = evaluator.weights
        config = AnnealConfig(
            iterations=30, calibration_samples=4, grid_nx=8, grid_ny=8
        )
        first = anneal(circ.modules, stack, circ.nets, circ.terminals,
                       config=config, evaluator=evaluator)
        assert evaluator.weights == original
        second = anneal(circ.modules, stack, circ.nets, circ.terminals,
                        config=config, evaluator=evaluator)
        assert evaluator.weights == original
        # identical seeds + restored weights => identical outcomes
        assert second.cost == pytest.approx(first.cost)

    def test_incremental_and_oracle_anneal_agree(self):
        """The full SA loop lands on the same floorplan either way when
        every slow term refreshes every iteration."""
        circ, outline = _circuit(num_modules=8, seed=7)
        stack = StackConfig(outline)
        config = AnnealConfig(
            iterations=60,
            calibration_samples=4,
            grid_nx=8,
            grid_ny=8,
            timing_every=1,
            thermal_every=1,
            assignment_every=1,
        )
        results, stats = [], []
        for evaluator_cls in (CostEvaluator, _FullEvaluator):
            evaluator = evaluator_cls(
                stack,
                circ.nets,
                circ.terminals,
                grid_nx=8,
                grid_ny=8,
                timing_every=1,
                thermal_every=1,
                assignment_every=1,
                thermal_model=FastThermalModel(num_dies=2),
                auto_calibrate=False,
            )
            results.append(
                anneal(circ.modules, stack, circ.nets, circ.terminals,
                       config=config, evaluator=evaluator)
            )
            stats.append(evaluator.eval_stats["incremental"])
        inc_result, full_result = results
        assert stats[0] > 0 and stats[1] == 0
        assert inc_result.cost == pytest.approx(full_result.cost, abs=1e-9)
        assert inc_result.state.die_of == full_result.state.die_of

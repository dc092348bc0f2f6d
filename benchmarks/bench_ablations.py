"""Ablations of the design choices DESIGN.md calls out.

Not paper artifacts, but the experiments a reviewer would ask for:

1. **Entropy weight form** — Claramunt-principled d_intra/d_inter vs. the
   paper's literal d_inter/d_intra (Eq. 3 as printed).  The principled
   form must make clustered-uniform power score *lower* than interleaved
   power; the printed form inverts that (why we treat it as a typo).
2. **TSV heat-pipe physics** — correlation response to TSV density with
   and without the TSV-strengthened secondary path; the strengthened
   path is what lets dense regular TSVs stay correlated (Sec. 3
   finding ii).
3. **Stack height** — the paper's future work: the same flow on a
   three-die stack; the leakage machinery must keep functioning and the
   middle die should be the hottest (no direct sink or package path).
4. **In-loop fidelity** — whether the anneal's in-loop leakage score
   (the exact solve of the TSV-free stack) ranks layouts the way the
   detailed solve with the layouts' real signal TSVs does.
"""

import numpy as np
import pytest
from scipy.stats import spearmanr

from repro.benchmarks import load
from repro.exploration import power_pattern
from repro.floorplan.annealer import AnnealConfig, anneal
from repro.floorplan.objectives import CostEvaluator, FloorplanMode, calibrated_thermal_model
from repro.layout import GridSpec, StackConfig
from repro.leakage.entropy import spatial_entropy
from repro.leakage.pearson import die_correlation
from repro.thermal import FastThermalModel, SteadyStateSolver, build_stack


class TestEntropyFormAblation:
    def test_weight_forms_disagree_on_clustering(self, benchmark):
        half = np.zeros((12, 12))
        half[:, 6:] = 1.0  # clustered similar values
        checker = np.indices((12, 12)).sum(axis=0) % 2.0  # interleaved
        claramunt = (
            spatial_entropy(half, weight="claramunt"),
            spatial_entropy(checker, weight="claramunt"),
        )
        printed = (
            spatial_entropy(half, weight="as_printed"),
            spatial_entropy(checker, weight="as_printed"),
        )
        print(f"\nclaramunt: clustered={claramunt[0]:.3f} interleaved={claramunt[1]:.3f}")
        print(f"as_printed: clustered={printed[0]:.3f} interleaved={printed[1]:.3f}")
        assert claramunt[0] < claramunt[1]
        assert printed[0] > printed[1]
        benchmark(spatial_entropy, half)


class TestTSVPhysicsAblation:
    def test_secondary_path_effect(self, benchmark):
        """Without the TSV-strengthened package path, dense TSVs only mix
        the dies and the correlation of gradient power drops; with it,
        the heat-pipe effect keeps dense regular TSVs correlated."""
        cfg = StackConfig.square(4000.0)
        grid = GridSpec(cfg.outline, 24, 24)
        pm0 = power_pattern("large_gradients", grid, 4.0, seed=2)
        pm1 = power_pattern("large_gradients", grid, 4.0, seed=3)
        dense = np.ones(grid.shape)

        results = {}
        for label, r_tsv in (("with heat-pipe path", 8.0e-5),
                             ("without (package path unchanged)", 1.0e-3)):
            solver = SteadyStateSolver(
                build_stack(cfg, grid, tsv_density=dense, r_bottom_tsv_area=r_tsv)
            )
            res = solver.solve([pm0, pm1])
            results[label] = die_correlation(pm0, res.die_maps[0])
        print("\ndense-TSV correlation (large gradients):")
        for label, r in results.items():
            print(f"  {label:<36} r1={r:.3f}")
        assert results["with heat-pipe path"] > results[
            "without (package path unchanged)"
        ]
        benchmark(die_correlation, pm0, pm0)


class TestThreeDieStack:
    def test_flow_machinery_on_three_dies(self, benchmark):
        """Future-work direction of the paper: taller stacks."""
        cfg = StackConfig.square(3000.0, num_dies=3)
        grid = GridSpec(cfg.outline, 16, 16)
        stack = build_stack(cfg, grid)
        assert [d for _, d in stack.power_layers()] == [0, 1, 2]
        solver = SteadyStateSolver(stack)
        pm = np.full(grid.shape, 2.0 / 256)
        res = solver.solve([pm, pm, pm])
        means = [m.mean() for m in res.die_maps]
        print(f"\n3-die stack mean temps (bottom->top): "
              f"{['%.1f' % m for m in means]}")
        # the top die sits next to the sink and must be coolest
        assert means[2] == min(means)
        rs = [die_correlation(pm_, t) for pm_, t in zip([pm] * 3, res.die_maps)]
        assert all(np.isfinite(rs))
        benchmark(solver.solve, [pm, pm, pm])


def _mean_abs_r(power_maps, temperature_maps) -> float:
    return float(np.mean([abs(die_correlation(p, t))
                          for p, t in zip(power_maps, temperature_maps)]))


class TestInLoopFidelity:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_inloop_ranking_matches_detailed(self, benchmark, monkeypatch, seed):
        """Every 5th in-loop estimate of the perfbench ``flow_tsc_n100``
        anneal (n100, TSC mode, 150 iterations, 8 scale samples, 32x32) is
        re-solved in detail on the stack with that layout's real
        signal-TSV densities.  The in-loop mean |r| must rank the layouts
        as the detailed one does: Spearman >= 0.9."""
        circ, stack = load("n100")
        grid = GridSpec(stack.outline, 32, 32)
        evaluate, estimate = CostEvaluator.evaluate, FastThermalModel.estimate
        current, samples = {}, []

        def evaluate_hook(evaluator, state, force_full=False):
            current["state"] = state
            return evaluate(evaluator, state, force_full)

        def estimate_hook(model, power_maps):
            temperatures = estimate(model, power_maps)
            current["calls"] = current.get("calls", 0) + 1
            if current["calls"] % 5 == 0:
                fp = current["state"].realize(circ.nets, circ.terminals)
                samples.append(([p.copy() for p in power_maps], temperatures,
                                fp.tsv_densities(grid)))
            return temperatures

        monkeypatch.setattr(CostEvaluator, "evaluate", evaluate_hook)
        monkeypatch.setattr(FastThermalModel, "estimate", estimate_hook)
        config = AnnealConfig(iterations=150, seed=seed, calibration_samples=8)
        anneal(circ.modules, stack, circ.nets, circ.terminals,
               mode=FloorplanMode.TSC_AWARE, config=config)
        monkeypatch.undo()

        inloop = np.array([_mean_abs_r(p, t) for p, t, _ in samples])
        detailed = np.array([
            _mean_abs_r(p, SteadyStateSolver(
                build_stack(stack, grid, tsv_density=density)).solve(p).die_maps)
            for p, _, density in samples
        ])
        rho = spearmanr(inloop, detailed).statistic
        signs = float(np.mean(np.sign(np.diff(inloop)) == np.sign(np.diff(detailed))))
        print(f"\nin-loop fidelity, seed {seed}, {len(samples)} layouts: "
              f"Spearman {rho:.3f}, consecutive changes with the right sign "
              f"{signs:.3f}, mean |r| in-loop {inloop.mean():.3f} / "
              f"detailed {detailed.mean():.3f}")
        assert len(samples) >= 6
        assert rho >= 0.9
        benchmark(calibrated_thermal_model(stack, grid).estimate, samples[-1][0])

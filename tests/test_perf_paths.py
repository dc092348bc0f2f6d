"""Oracle tests for the batched hot paths.

Covers the two perf-path guarantees this layer makes:

* ``TransientSolver.run_many`` matches per-trace ``run`` to 1e-12;
* the batched Gaussian activity sampler matches the per-sample
  rasterization loop.
"""

import numpy as np
import pytest

from oracles.activity import sample_power_maps_loop
from repro.benchmarks import generator
from repro.benchmarks.generator import BenchmarkSpec, generate_circuit
from repro.floorplan.seqpair import LayoutState
from repro.layout.die import StackConfig
from repro.layout.floorplan import Floorplan3D
from repro.layout.geometry import Rect
from repro.layout.grid import GridSpec
from repro.layout.module import Module, Placement
from repro.mitigation.activity import sample_power_maps
from repro.thermal.stack import build_stack
from repro.thermal.transient import TransientSolver


def _circuit(num_modules=14, seed=5):
    spec = BenchmarkSpec("tiny", 0, num_modules, 1, 40, 8, 0.25, 1.2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "SEED", seed)
        circ = generate_circuit(spec)
    return circ, spec.outline


class TestRunManyOracle:
    def _solver(self, n=8):
        cfg = StackConfig.square(1000.0)
        grid = GridSpec(cfg.outline, n, n)
        return grid, TransientSolver(build_stack(cfg, grid))

    def _traces(self, grid, count, seed=0):
        rng = np.random.default_rng(seed)
        cells = grid.nx * grid.ny

        def make(p0, p1, f):
            def power_at(t):
                wobble = 1.0 + 0.5 * np.sin(2 * np.pi * f * t)
                return [p0 * wobble, p1]

            return power_at

        return [
            make(
                rng.random(grid.shape) * 2.0 / cells,
                rng.random(grid.shape) * 2.0 / cells,
                10.0 + 5.0 * i,
            )
            for i in range(count)
        ]

    def test_matches_per_trace_run(self):
        grid, solver = self._solver()
        fns = self._traces(grid, 7)
        batched = solver.run_many(fns, duration=0.06, dt=0.005)
        for fn, got in zip(fns, batched):
            want = solver.run(fn, duration=0.06, dt=0.005)
            np.testing.assert_allclose(got.die_means, want.die_means, atol=1e-12)
            np.testing.assert_allclose(got.die_temps, want.die_temps, atol=1e-12)
            np.testing.assert_array_equal(got.times, want.times)

    def test_zero_power_stays_at_ambient(self):
        """Every trace starts from the ambient temperature."""
        grid, solver = self._solver()
        zero = [np.zeros(grid.shape)] * 2
        for trace in solver.run_many([lambda t: zero] * 2, duration=0.02, dt=0.005):
            # one LU solve per step rounds at the 1e-14 relative level
            np.testing.assert_allclose(trace.die_means, solver.stack.ambient, atol=1e-9)
            np.testing.assert_allclose(trace.die_temps, solver.stack.ambient, atol=1e-9)

    def test_empty_batch_and_validation(self):
        grid, solver = self._solver()
        assert solver.run_many([], duration=0.1, dt=0.01) == []
        with pytest.raises(ValueError):
            solver.run_many(self._traces(grid, 1), duration=0.0, dt=0.01)

    def test_dt_factorization_lru(self):
        """Alternating step sizes reuse their factorizations."""
        grid, solver = self._solver()
        fn = self._traces(grid, 1)[0]
        solver.run(fn, duration=0.02, dt=0.01)
        solver.run(fn, duration=0.02, dt=0.005)
        assert set(solver._lus) == {0.01, 0.005}
        lu_coarse = solver._lus[0.01]
        solver.run(fn, duration=0.02, dt=0.01)  # hits the cached entry
        assert solver._lus[0.01] is lu_coarse


class TestBatchedActivitySampling:
    def _floorplan(self):
        circ, outline = _circuit(num_modules=12, seed=2)
        stack = StackConfig(outline, num_dies=2)
        rng = np.random.default_rng(0)
        state = LayoutState.initial(circ.modules, stack, rng)
        return state.realize(circ.nets, circ.terminals, place_tsvs=False)

    def test_sample_matrix_matches_sequential_samples(self):
        """Sample k carries the k-th row of factors one ``default_rng(seed)``
        stream draws, module by module in name order: each die of a
        one-module-per-die stack scales its nominal map by exactly that
        module's clipped factor."""
        mods = {n: Module(n, 20.0, 20.0, power=1.0) for n in "abcd"}
        fp = Floorplan3D(
            StackConfig(Rect(0.0, 0.0, 100.0, 100.0), num_dies=4),
            {n: Placement(mods[n], 10.0, 10.0, die=i) for i, n in enumerate("abcd")},
        )
        grid = GridSpec(fp.stack.outline, 5, 5)
        nominal = [fp.power_map(d, grid) for d in range(4)]
        batched = sample_power_maps(fp, grid, count=50, sigma=0.2, seed=9)
        sequential = np.random.default_rng(9)
        for maps in batched:
            row = np.maximum(sequential.normal(1.0, 0.2, size=4), 0.0)
            for d in range(4):
                np.testing.assert_allclose(maps[d], row[d] * nominal[d], rtol=1e-15, atol=0.0)

    def test_batched_maps_match_loop_oracle(self):
        fp = self._floorplan()
        grid = GridSpec(fp.stack.outline, 8, 8)
        batched = sample_power_maps(fp, grid, count=25, sigma=0.15, seed=6)
        loop = sample_power_maps_loop(fp, grid, count=25, sigma=0.15, seed=6)
        assert len(batched) == len(loop) == 25
        for sb, sl in zip(batched, loop):
            for mb, ml in zip(sb, sl):
                np.testing.assert_allclose(mb, ml, rtol=1e-9, atol=1e-15)

"""Oracle tests for the batched/incremental hot paths.

Covers the four perf-path guarantees this layer makes:

* ``TransientSolver.run_many`` matches per-trace ``run`` to 1e-12;
* per-net dirty HPWL tracking is *bit-identical* to a full recompute
  over long random move sequences (including a three-die stack);
* the batched Gaussian activity sampler matches the per-sample
  rasterization loop;
* persisted solver factorizations rebuild into solvers that match the
  natively factorized ones.
"""

import numpy as np
import pytest

from oracles.activity import sample_power_maps_loop
from repro.benchmarks.generator import BenchmarkSpec, generate_circuit
from repro.floorplan.moves import apply_random_move
from repro.floorplan.objectives import CompiledNetlist, CostEvaluator, FloorplanMode
from repro.floorplan.seqpair import LayoutState
from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.mitigation.activity import ActivitySampler, sample_power_maps
from repro.thermal.fast import FastThermalModel
from repro.thermal.stack import build_stack
from repro.thermal.steady_state import SolverCache, SteadyStateSolver
from repro.thermal.transient import TransientSolver


def _circuit(num_modules=14, seed=5):
    spec = BenchmarkSpec("tiny", 0, num_modules, 1, 40, 8, 0.25, 1.2, seed=seed)
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
            np.testing.assert_allclose(got.die_peaks, want.die_peaks, atol=1e-12)
            np.testing.assert_array_equal(got.times, want.times)

    def test_t0_forms(self):
        grid, solver = self._solver()
        fns = self._traces(grid, 3)
        n = solver.network.num_nodes
        t0 = np.full(n, solver.stack.ambient + 2.0)
        shared = solver.run_many(fns, duration=0.02, dt=0.005, t0=t0)
        per_trace = solver.run_many(
            fns, duration=0.02, dt=0.005, t0=np.repeat(t0[:, None], 3, axis=1)
        )
        for a, b in zip(shared, per_trace):
            np.testing.assert_array_equal(a.die_means, b.die_means)
        single = solver.run(fns[0], duration=0.02, dt=0.005, t0=t0)
        np.testing.assert_allclose(
            shared[0].die_means, single.die_means, atol=1e-12
        )
        with pytest.raises(ValueError):
            solver.run_many(fns, duration=0.02, dt=0.005, t0=np.zeros(3))

    def test_empty_batch_and_validation(self):
        grid, solver = self._solver()
        assert solver.run_many([], duration=0.1, dt=0.01) == []
        with pytest.raises(ValueError):
            solver.run_many(self._traces(grid, 1), duration=0.0, dt=0.01)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 100])
    def test_chunked_batch_matches_unchunked(self, chunk):
        """``max_traces_in_flight`` bounds memory without changing the
        answer: traces are independent, so chunked lock-step matches full
        lock-step to machine precision (SuperLU's multi-RHS back
        substitution is not bitwise stable across batch widths, same as
        the ``run`` vs ``run_many`` oracle above)."""
        grid, solver = self._solver()
        fns = self._traces(grid, 7)
        full = solver.run_many(fns, duration=0.04, dt=0.005)
        chunked = solver.run_many(
            fns, duration=0.04, dt=0.005, max_traces_in_flight=chunk
        )
        assert len(chunked) == len(full)
        for a, b in zip(chunked, full):
            np.testing.assert_allclose(a.die_means, b.die_means, atol=1e-12)
            np.testing.assert_allclose(a.die_peaks, b.die_peaks, atol=1e-12)
            np.testing.assert_array_equal(a.times, b.times)

    def test_chunked_batch_slices_per_trace_t0(self):
        grid, solver = self._solver()
        fns = self._traces(grid, 5)
        n = solver.network.num_nodes
        rng = np.random.default_rng(3)
        t0 = solver.stack.ambient + rng.random((n, 5))
        full = solver.run_many(fns, duration=0.02, dt=0.005, t0=t0)
        chunked = solver.run_many(
            fns, duration=0.02, dt=0.005, t0=t0, max_traces_in_flight=2
        )
        for a, b in zip(chunked, full):
            np.testing.assert_allclose(a.die_means, b.die_means, atol=1e-12)
        # the full-batch t0 is validated before any chunk runs
        with pytest.raises(ValueError):
            solver.run_many(
                fns, duration=0.02, dt=0.005,
                t0=t0[:, :3], max_traces_in_flight=2,
            )

    def test_chunked_t0_none_never_materializes_full_batch(self):
        """With no caller-supplied t0, chunking must allocate nodal state
        chunk-by-chunk — a full (nodes, traces) matrix up front would
        defeat the memory ceiling the parameter provides."""
        grid, solver = self._solver()
        fns = self._traces(grid, 6)
        batches = []
        orig = solver._initial

        def spy(t0, batch):
            batches.append(batch)
            return orig(t0, batch)

        solver._initial = spy
        solver.run_many(fns, duration=0.01, dt=0.005, max_traces_in_flight=2)
        assert batches and max(batches) == 2

    def test_chunk_size_validation(self):
        grid, solver = self._solver()
        with pytest.raises(ValueError):
            solver.run_many(
                self._traces(grid, 2), duration=0.02, dt=0.005,
                max_traces_in_flight=0,
            )

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


class TestPerNetDirtyHPWL:
    @pytest.mark.parametrize("num_dies", [2, 3])
    def test_bit_identical_over_move_sequence(self, num_dies):
        """300 random moves: the per-net dirty path must equal a full
        recompute *bitwise* — same arrays, same totals."""
        circ, outline = _circuit(num_modules=16, seed=3)
        stack = StackConfig(outline, num_dies=num_dies)
        evaluator = CostEvaluator(
            stack,
            circ.nets,
            circ.terminals,
            mode=FloorplanMode.TSC_AWARE,
            grid_nx=8,
            grid_ny=8,
            thermal_model=FastThermalModel(num_dies=num_dies),
            auto_calibrate=False,
        )
        rng = np.random.default_rng(17)
        state = LayoutState.initial(circ.modules, stack, rng)
        evaluator.evaluate(state, force_full=True)
        evaluator.commit()
        nl = evaluator._compiled(state)
        for step in range(300):
            candidate = state.copy()
            rec = apply_random_move(candidate, rng)
            evaluator.evaluate(candidate, dirty_dies=rec.dies)
            snap = evaluator._pending
            wl, crossings, hpwl, per_net_crossings = nl.wirelength(
                snap.cx, snap.cy, snap.dd, evaluator.tsv_length_um
            )
            np.testing.assert_array_equal(snap.net_hpwl, hpwl, err_msg=f"step {step}")
            np.testing.assert_array_equal(snap.net_crossings, per_net_crossings)
            assert snap.wirelength == wl, f"step {step}"
            assert snap.tsv_crossings == crossings, f"step {step}"
            if rng.random() < 0.6:
                state = candidate
                evaluator.commit()
        assert evaluator.eval_stats["incremental"] == 300
        # the whole point: the dirty path touches a fraction of the netlist
        assert evaluator.eval_stats["dirty_nets"] < 300 * nl.num_nets

    def test_nets_touching(self):
        circ, outline = _circuit(num_modules=10, seed=1)
        nl = CompiledNetlist(list(circ.modules), circ.nets, circ.terminals)
        for m in range(nl.num_modules):
            want = sorted(
                n for n in range(nl.num_nets)
                if m in nl.pin_idx[nl.ptr[n] : nl.ptr[n + 1]]
            )
            assert nl.nets_touching([m]).tolist() == want
        assert nl.nets_touching([]).size == 0

    def test_wirelength_of_subset_matches_full(self):
        circ, outline = _circuit(num_modules=12, seed=8)
        stack = StackConfig(outline, num_dies=2)
        rng = np.random.default_rng(4)
        state = LayoutState.initial(circ.modules, stack, rng)
        nl = CompiledNetlist(list(circ.modules), circ.nets, circ.terminals)
        cx = rng.random(nl.num_modules) * 100
        cy = rng.random(nl.num_modules) * 100
        dd = rng.integers(0, 2, size=nl.num_modules)
        _, _, hpwl, crossings = nl.wirelength(cx, cy, dd, 50.0)
        subset = rng.choice(nl.num_nets, size=max(1, nl.num_nets // 3), replace=False)
        subset = np.unique(subset)
        h, c = nl.wirelength_of(subset, cx, cy, dd, 50.0)
        np.testing.assert_array_equal(h, hpwl[subset])
        np.testing.assert_array_equal(c, crossings[subset])


class TestBatchedActivitySampling:
    def _floorplan(self):
        circ, outline = _circuit(num_modules=12, seed=2)
        stack = StackConfig(outline, num_dies=2)
        rng = np.random.default_rng(0)
        state = LayoutState.initial(circ.modules, stack, rng)
        return state.realize(circ.nets, circ.terminals, place_tsvs=False)

    def test_sample_matrix_matches_sequential_samples(self):
        names = ["a", "b", "c", "d"]
        batched = ActivitySampler(names, sigma=0.2, seed=9).sample_matrix(50)
        sequential = ActivitySampler(names, sigma=0.2, seed=9)
        for row in batched:
            sample = sequential.sample()
            assert [sample[n] for n in names] == list(row)

    def test_batched_maps_match_loop_oracle(self):
        fp = self._floorplan()
        grid = GridSpec(fp.stack.outline, 8, 8)
        batched = sample_power_maps(fp, grid, count=25, sigma=0.15, seed=6)
        loop = sample_power_maps_loop(fp, grid, count=25, sigma=0.15, seed=6)
        assert len(batched) == len(loop) == 25
        for sb, sl in zip(batched, loop):
            for mb, ml in zip(sb, sl):
                np.testing.assert_allclose(mb, ml, rtol=1e-9, atol=1e-15)


class TestPersistedSolverCache:
    def test_disk_round_trip_matches_native(self, tmp_path):
        cfg = StackConfig.square(1500.0)
        grid = GridSpec(cfg.outline, 10, 10)
        rng = np.random.default_rng(11)
        pm = [rng.random(grid.shape) * 0.01 for _ in range(2)]

        warmer = SolverCache(disk_dir=tmp_path)
        warm_solver = warmer.solver(cfg, grid)
        assert warmer.disk_hits == 0
        assert list(tmp_path.glob("fact-*.npz"))

        fresh = SolverCache(disk_dir=tmp_path)  # simulates another process
        loaded = fresh.solver(cfg, grid)
        assert fresh.disk_hits == 1

        native = SteadyStateSolver(build_stack(cfg, grid))
        want = native.solve(pm)
        for solver in (warm_solver, loaded):
            got = solver.solve(pm)
            np.testing.assert_allclose(got.nodal, want.nodal, rtol=1e-9)
        sets = [[rng.random(grid.shape) * 0.01 for _ in range(2)] for _ in range(5)]
        want_many = native.solve_many(sets)
        got_many = loaded.solve_many(sets)
        for a, b in zip(got_many, want_many):
            np.testing.assert_allclose(a.nodal, b.nodal, rtol=1e-9)

    @pytest.mark.parametrize("corruption", ["garbage", "truncated_zip"])
    def test_corrupt_file_falls_back_to_factorization(self, tmp_path, corruption):
        cfg = StackConfig.square(1500.0)
        grid = GridSpec(cfg.outline, 8, 8)
        SolverCache(disk_dir=tmp_path).solver(cfg, grid)
        (path,) = tmp_path.glob("fact-*.npz")
        if corruption == "garbage":
            path.write_bytes(b"not an npz file")
        else:
            # a torn write keeps the zip magic but loses the payload —
            # np.load raises BadZipFile, which must mean "re-factorize"
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        fallback = SolverCache(disk_dir=tmp_path)
        solver = fallback.solver(cfg, grid)
        assert fallback.disk_hits == 0
        rng = np.random.default_rng(0)
        pm = [rng.random(grid.shape) * 0.01 for _ in range(2)]
        native = SteadyStateSolver(build_stack(cfg, grid))
        np.testing.assert_allclose(
            solver.solve(pm).nodal, native.solve(pm).nodal, rtol=1e-9
        )
        # the unreadable file was healed: the next process loads cleanly
        healed = SolverCache(disk_dir=tmp_path)
        healed.solver(cfg, grid)
        assert healed.disk_hits == 1

    def test_no_disk_dir_means_no_files(self, tmp_path):
        cfg = StackConfig.square(1500.0)
        grid = GridSpec(cfg.outline, 8, 8)
        SolverCache().solver(cfg, grid)
        assert not list(tmp_path.iterdir())

    def test_stale_factors_for_changed_network_are_rejected(self, tmp_path):
        """Factors persisted for an older network revision must be
        dropped (and re-persisted), never silently solve the wrong
        system."""
        import numpy as _np

        cfg = StackConfig.square(1500.0)
        grid = GridSpec(cfg.outline, 8, 8)
        SolverCache(disk_dir=tmp_path).solver(cfg, grid)
        (path,) = tmp_path.glob("fact-*.npz")
        # simulate a code revision changing the assembled conductance:
        # rewrite the stored digest so it no longer matches
        with _np.load(path) as z:
            payload = {name: z[name] for name in z.files}
        payload["conductance_digest"] = _np.array("0" * 40)
        _np.savez(path.with_suffix(""), **payload)
        before = path.stat().st_mtime_ns

        fresh = SolverCache(disk_dir=tmp_path)
        solver = fresh.solver(cfg, grid)
        assert fresh.disk_hits == 0  # stale factors rejected
        assert not solver.factorization.is_persisted
        assert path.stat().st_mtime_ns != before  # re-persisted fresh

    def test_drop_persisted_solvers_and_clear_stats(self, tmp_path):
        cfg = StackConfig.square(1500.0)
        grid = GridSpec(cfg.outline, 8, 8)
        SolverCache(disk_dir=tmp_path).solver(cfg, grid)
        cache = SolverCache(disk_dir=tmp_path)
        solver = cache.solver(cfg, grid)
        assert solver.factorization.is_persisted
        assert cache.disk_hits == 1
        assert cache.drop_persisted_solvers() == 1
        assert len(cache) == 0
        cache.clear()
        assert cache.disk_hits == 0

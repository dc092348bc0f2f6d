"""Perf — microbenchmarks of the engine's hot kernels.

Not a paper artifact; tracks the throughput of the pieces that gate the
flow's wall-clock: sequence-pair packing, vectorized wirelength, the
leakage metrics, the fast in-loop thermal estimate, the detailed solve,
the DVFS response kernels, and voltage assignment.
"""

import numpy as np
import pytest

from oracles.activity import sample_power_maps_loop
from oracles.pearson import local_correlation_map_loop
from repro.benchmarks import load
from repro.floorplan.moves import apply_random_move
from repro.floorplan.objectives import CostEvaluator, FloorplanMode, calibrated_thermal_model
from repro.floorplan.seqpair import LayoutState
from repro.layout.grid import GridSpec
from repro.layout.net import CompiledNetlist
from repro.leakage.entropy import spatial_entropy
from repro.leakage.pearson import die_correlation, local_correlation_map
from repro.leakage.stability import stability_map
from repro.mitigation.activity import sample_power_maps
from repro.power.assignment import AssignmentObjective, assign_voltages
from repro.power.volumes import sorted_rank
from repro.thermal.stack import build_stack
from repro.thermal.steady_state import SteadyStateSolver
from repro.thermal.transient import TransientSolver


@pytest.fixture(scope="module")
def n100_state():
    circ, stack = load("n100")
    rng = np.random.default_rng(0)
    return circ, stack, LayoutState.initial(circ.modules, stack, rng)


@pytest.fixture(scope="module")
def ibm03_state():
    circ, stack = load("ibm03")
    rng = np.random.default_rng(0)
    return circ, stack, LayoutState.initial(circ.modules, stack, rng)


def test_pack_n100(benchmark, n100_state):
    _, _, state = n100_state
    benchmark(state.pack)


def test_pack_ibm03(benchmark, ibm03_state):
    """~1300 modules: the packing kernel must stay in the low-ms range."""
    _, _, state = ibm03_state
    benchmark(state.pack)


def test_wirelength_ibm03(benchmark, ibm03_state):
    circ, stack, state = ibm03_state
    nl = CompiledNetlist(list(circ.modules), circ.nets, circ.terminals)
    x, y, _ = state.pack()
    benchmark(nl.wirelength, x + state.w / 2, y + state.h / 2, state.die)


def test_spatial_entropy_64(benchmark):
    rng = np.random.default_rng(1)
    pm = rng.lognormal(0, 0.8, size=(64, 64))
    benchmark(spatial_entropy, pm)


def test_pearson_64(benchmark):
    rng = np.random.default_rng(2)
    p = rng.random((64, 64))
    t = rng.random((64, 64))
    benchmark(die_correlation, p, t)


def test_stability_map_100_samples(benchmark):
    rng = np.random.default_rng(3)
    ps = [rng.random((32, 32)) for _ in range(100)]
    ts = [2 * p + 0.1 * rng.random((32, 32)) for p in ps]
    benchmark(stability_map, ps, ts)


def test_fast_thermal_64(benchmark, n100_state):
    """One in-loop estimate at 64x64: the homogenized solve of the n100
    TSV-free stack (model built outside the timing)."""
    _, stack, _ = n100_state
    model = calibrated_thermal_model(stack, GridSpec(stack.outline, 64, 64))
    rng = np.random.default_rng(4)
    pms = [rng.random((64, 64)) * 1e-3 for _ in range(2)]
    benchmark(model.estimate, pms)


def test_detailed_solve_32(benchmark, n100_state):
    _, stack, _ = n100_state
    grid = GridSpec(stack.outline, 32, 32)
    solver = SteadyStateSolver(build_stack(stack, grid))
    pm = np.full(grid.shape, 4.0 / 1024)
    benchmark(solver.solve, [pm, pm])


def test_voltage_assignment_n100(benchmark, n100_state):
    circ, stack, state = n100_state
    fp = state.realize(circ.nets, circ.terminals, place_tsvs=False)
    names = list(fp.placements)
    x, y, w, h, die, power, _ = fp.module_arrays(names)
    rank = sorted_rank(names)
    slack = np.full(len(names), 1.6)
    benchmark(
        assign_voltages, x[rank], y[rank], w[rank], h[rank], die[rank], rank,
        power[rank], slack, AssignmentObjective.TSC_AWARE,
    )


# -- annealing-iteration throughput ---------------------------------------------
#
# One "iteration" is what the SA loop does per move: copy the state, apply
# a random move, and score the candidate at the default refresh cadences.
# Every candidate is adopted (the accept-all case).


def _iteration_harness():
    circ, stack = load("n100")
    rng = np.random.default_rng(0)
    state = LayoutState.initial(circ.modules, stack, rng)
    evaluator = CostEvaluator(
        stack, circ.nets, circ.terminals,
        mode=FloorplanMode.TSC_AWARE,
    )
    evaluator.evaluate(state, force_full=True)
    box = {"state": state}

    def one_iteration():
        candidate = box["state"].copy()
        apply_random_move(candidate, rng)
        evaluator.evaluate(candidate)
        box["state"] = candidate

    return one_iteration


def test_anneal_iteration_n100(benchmark):
    """One move of the production loop, default refresh cadences."""
    benchmark(_iteration_harness())


# -- batched activity-sampling sweep (Sec. 6.2) ---------------------------------
#
# 100 Gaussian activity samples on a 32x32 stack.  The naive variant
# re-assembles and re-factorizes the network per sample (what a cache-less
# flow pays); the batched variant back-substitutes all 100 right-hand
# sides through one cached LU via solve_many.


@pytest.fixture(scope="module")
def activity_sweep_setup(n100_state):
    _, stack, _ = n100_state
    grid = GridSpec(stack.outline, 32, 32)
    rng = np.random.default_rng(9)
    power_sets = [
        [rng.random(grid.shape) * 4.0 / 1024, rng.random(grid.shape) * 4.0 / 1024]
        for _ in range(100)
    ]
    return stack, grid, power_sets


def test_activity_sweep_batched_lu_reuse(benchmark, activity_sweep_setup):
    stack, grid, power_sets = activity_sweep_setup
    solver = SteadyStateSolver(build_stack(stack, grid))
    benchmark(solver.solve_many, power_sets)


def test_activity_sweep_refactorize_per_sample(benchmark, activity_sweep_setup):
    stack, grid, power_sets = activity_sweep_setup

    def naive():
        for maps in power_sets:
            SteadyStateSolver(build_stack(stack, grid)).solve(maps)

    benchmark.pedantic(naive, rounds=1, iterations=1)


# -- batched transient traces (Figure 1 path) -----------------------------------
#
# 16 activity traces through the backward-Euler integrator: run_many
# back-substitutes all traces per step through one factorized step matrix
# (plus vectorized per-die reductions); the loop variant is what
# per-trace run calls used to cost.


@pytest.fixture(scope="module")
def transient_setup(n100_state):
    _, stack, _ = n100_state
    grid = GridSpec(stack.outline, 16, 16)
    solver = TransientSolver(build_stack(stack, grid))
    rng = np.random.default_rng(12)
    cells = grid.nx * grid.ny

    def make(p0, p1):
        return lambda t: [p0, p1]

    fns = [
        make(rng.random(grid.shape) * 4.0 / cells, rng.random(grid.shape) * 4.0 / cells)
        for _ in range(16)
    ]
    solver.run(fns[0], duration=0.01, dt=0.005)  # warm the factorization
    return solver, fns


def test_transient_traces_batched_run_many(benchmark, transient_setup):
    solver, fns = transient_setup
    benchmark(solver.run_many, fns, 0.05, 0.005)


def test_transient_traces_per_trace_loop(benchmark, transient_setup):
    solver, fns = transient_setup

    def loop():
        for fn in fns:
            solver.run(fn, duration=0.05, dt=0.005)

    benchmark(loop)


@pytest.fixture(scope="module")
def dvfs_kernel_stack(n100_state):
    from repro.thermal.stack import TopologyConfig

    _, stack_cfg, _ = n100_state
    grid = GridSpec(stack_cfg.outline, 24, 24)
    return build_stack(stack_cfg, grid, topology=TopologyConfig(kind="2.5d"))


def test_dvfs_kernels_2p5d_24(benchmark, dvfs_kernel_stack):
    """The DVFS stage's response kernels on the n100 2.5D stack at 24x24,
    as one flow computes them (2 ms steps, 24 windows of 4): a cold
    solver, so its network assembly and step factorization are timed
    with both dies' 96-step adjoint chains."""
    benchmark(lambda: TransientSolver(dvfs_kernel_stack).die_mean_kernels(2e-3, 96))


# -- mitigation round at equal sample count (Sec. 6.2 path) -----------------------
#
# One full insertion round (100 activity samples, stability map,
# speculative candidate scoring).  The "loop sampling" variant swaps the
# batched Gaussian sampler for the per-sample rasterization loop — the
# pre-batching round cost at the same sample count.


@pytest.fixture(scope="module")
def mitigation_floorplan(n100_state):
    circ, stack, state = n100_state
    return state.realize(circ.nets, circ.terminals, place_tsvs=False)


_MITIGATION_CFG = dict(samples=100, tsvs_per_round=6, max_rounds=1,
                       grid_nx=32, grid_ny=32, seed=5)


def test_sample_power_maps_batched_n100(benchmark, mitigation_floorplan):
    grid = GridSpec(mitigation_floorplan.stack.outline, 32, 32)
    benchmark(sample_power_maps, mitigation_floorplan, grid, 100, 0.10, 3)


def test_sample_power_maps_loop_n100(benchmark, mitigation_floorplan):
    grid = GridSpec(mitigation_floorplan.stack.outline, 32, 32)
    benchmark.pedantic(
        sample_power_maps_loop,
        args=(mitigation_floorplan, grid, 100, 0.10, 3),
        rounds=2,
        iterations=1,
    )


def test_mitigation_round_batched_sampling(benchmark, mitigation_floorplan):
    from repro.mitigation.dummy_tsv import MitigationConfig, insert_dummy_tsvs

    benchmark(
        insert_dummy_tsvs, mitigation_floorplan, MitigationConfig(**_MITIGATION_CFG)
    )


def test_mitigation_round_loop_sampling(benchmark, mitigation_floorplan, monkeypatch):
    from repro.mitigation import dummy_tsv

    monkeypatch.setattr(dummy_tsv, "sample_power_maps", sample_power_maps_loop)
    benchmark.pedantic(
        dummy_tsv.insert_dummy_tsvs,
        args=(mitigation_floorplan, dummy_tsv.MitigationConfig(**_MITIGATION_CFG)),
        rounds=2,
        iterations=1,
    )


# -- mitigation candidate scoring (Sec. 6.2 speculative scoring) ------------------
#
# One speculative dummy-TSV candidate at the paper-scale verification
# grid (64x64): assemble the perturbed network, factorize it, and solve
# the nominal maps — what the mitigation loop pays per candidate.


@pytest.fixture(scope="module")
def mitigation_candidate_setup(n100_state):
    _, stack_cfg, _ = n100_state
    grid = GridSpec(stack_cfg.outline, 64, 64)
    # one insertion round's candidate group: tsvs_per_round=8 clustered
    # bins, the shape stability-guided selection produces on smooth maps
    density = np.zeros(grid.shape)
    density[30:32, 28:32] = 0.6
    cells = grid.nx * grid.ny
    pm = [np.full(grid.shape, 4.0 / cells) for _ in range(2)]
    return stack_cfg, grid, density, pm


def test_mitigation_candidate_refactorize_64(benchmark, mitigation_candidate_setup):
    from repro.thermal.steady_state import SteadyStateSolver as _SSS

    stack_cfg, grid, density, pm = mitigation_candidate_setup

    def score_candidate():
        stack = build_stack(stack_cfg, grid, tsv_density=density)
        return _SSS(stack).solve(pm)

    benchmark.pedantic(score_candidate, rounds=2, iterations=1)


# -- warm-cache batch sweeps ------------------------------------------------------
#
# resuming a recorded sweep from the results store costs file reads, not
# flow re-runs.


def test_run_batch_warm_store_resume(benchmark, tmp_path_factory):
    from repro.api import JobSpec
    from repro.core.store import ResultsStore
    from repro.exploration.study import run_batch

    root = tmp_path_factory.mktemp("store")
    job = JobSpec(benchmark="n100", iterations=40, grid=16)
    store = ResultsStore(root)
    run_batch([job], processes=1, store=store)  # cold run, recorded once

    def resume():
        return run_batch([job], processes=1, store=store)

    benchmark(resume)


def test_run_batch_cold_flow(benchmark, tmp_path_factory):
    """The cold counterpart of the resume bench: one actual flow run."""
    from repro.api import JobSpec
    from repro.exploration.study import run_batch

    job = JobSpec(benchmark="n100", iterations=40, grid=16)
    benchmark.pedantic(
        run_batch, args=([job],), kwargs=dict(processes=1), rounds=1, iterations=1
    )


def test_solver_cache_cold_factorize(benchmark, n100_state):
    from repro.thermal.steady_state import SolverCache

    _, stack, _ = n100_state
    grid = GridSpec(stack.outline, 32, 32)

    def cold_worker():
        SolverCache().solver(stack, grid)

    benchmark(cold_worker)


# -- serial vs parallel-tempered annealing at equal move budget -------------------
#
# The whole-loop kernels behind the tempering layer's claim: R replicas
# advancing iterations/R moves each across R cores must beat one serial
# chain over the full budget on wall-clock.  The committed baseline gates
# the tempered/serial ratio at >= 2x on the 4-core CI runner (see
# check_bench_regression.py); the serial kernel is additionally tracked
# against its own baseline like any other hot path.


_ANNEAL_BUDGET = 1000
_ANNEAL_CFG = dict(seed=0, grid_nx=16, grid_ny=16, calibration_samples=8)


@pytest.fixture(scope="module")
def anneal_bench_setup(n100_state):
    from repro.floorplan.objectives import calibrated_thermal_model

    circ, stack, _ = n100_state
    # pre-warm the calibrated fast-thermal model for this (stack, grid) so
    # neither kernel pays the detailed-solver calibration in the timed
    # region (workers inherit it warm via the chain's evaluator pickle)
    calibrated_thermal_model(stack, GridSpec(stack.outline, 16, 16))
    return circ, stack


def test_anneal_serial_n100(benchmark, anneal_bench_setup):
    from repro.floorplan.annealer import AnnealConfig, anneal

    circ, stack = anneal_bench_setup
    cfg = AnnealConfig(iterations=_ANNEAL_BUDGET, **_ANNEAL_CFG)

    def serial():
        return anneal(circ.modules, stack, circ.nets, circ.terminals, config=cfg)

    benchmark.pedantic(serial, rounds=1, iterations=1)


def test_anneal_tempered_4replica_n100(benchmark, anneal_bench_setup):
    import os

    from repro.floorplan.annealer import AnnealConfig
    from repro.floorplan.tempering import temper

    if (os.cpu_count() or 1) < 4:
        pytest.skip("tempered-vs-serial ratio needs >= 4 cores")
    circ, stack = anneal_bench_setup
    cfg = AnnealConfig(iterations=_ANNEAL_BUDGET, **_ANNEAL_CFG)

    def tempered():
        return temper(circ.modules, stack, circ.nets, circ.terminals,
                      config=cfg, replicas=4, exchange_every=50, processes=4)

    benchmark.pedantic(tempered, rounds=1, iterations=1)


# -- 2.5D interposer steady state (topology layer) --------------------------------
#
# The side-by-side interposer stack discretizes roughly twice the nodes
# of the vertical stack at the same per-die grid (dies spread out instead
# of stacking up).  The steady solve against a built solver (the auto
# rule puts this grid on the spectral PCG backend) is tracked against the
# committed baseline like any hot kernel, and the ratio gate pins it at
# >= 2x over rebuilding the interposer network and its solver per solve.


@pytest.fixture(scope="module")
def interposer_setup(n100_state):
    from repro.thermal.stack import TopologyConfig

    _, stack_cfg, _ = n100_state
    grid = GridSpec(stack_cfg.outline, 64, 64)
    topo = TopologyConfig(kind="2.5d")
    cells = grid.nx * grid.ny
    pm = [np.full(grid.shape, 4.0 / cells) for _ in range(2)]
    return stack_cfg, grid, topo, pm


def test_interposer_steady_state_64(benchmark, interposer_setup):
    stack_cfg, grid, topo, pm = interposer_setup
    solver = SteadyStateSolver(build_stack(stack_cfg, grid, topology=topo))
    benchmark(solver.solve, pm)


def test_interposer_refactorize_64(benchmark, interposer_setup):
    stack_cfg, grid, topo, pm = interposer_setup

    def refactorize():
        return SteadyStateSolver(
            build_stack(stack_cfg, grid, topology=topo)
        ).solve(pm)

    benchmark.pedantic(refactorize, rounds=2, iterations=1)


# -- vectorized local correlation map -------------------------------------------


def test_local_correlation_map_vectorized_64(benchmark):
    rng = np.random.default_rng(5)
    p = rng.random((64, 64)) * 1e-3
    t = 293.0 + 40.0 * rng.random((64, 64))
    benchmark(local_correlation_map, p, t, 5)


def test_local_correlation_map_loop_64(benchmark):
    rng = np.random.default_rng(5)
    p = rng.random((64, 64)) * 1e-3
    t = 293.0 + 40.0 * rng.random((64, 64))
    benchmark.pedantic(local_correlation_map_loop, args=(p, t, 5), rounds=2, iterations=1)

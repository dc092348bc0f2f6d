"""Forward-integration oracle for the DVFS leakage evaluator.

``evaluate_dvfs`` reads end-of-window die means off adjoint response
kernels; this module keeps the path it replaced: every trace of both
arms integrated step by step from its equilibrium, either one
:meth:`~repro.thermal.transient.TransientSolver.run` at a time or batched
column-exact.  The two forward variants are byte-identical to each other;
the adjoint path must match them within 1e-10.  It also keeps the
kernels' exact reference, every die's adjoint recursion step by step on
the calling thread, which the Lanczos model in ``die_mean_kernels`` must
match within 1e-10 of the kernels' largest entry.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.layout.floorplan import Floorplan3D
from repro.layout.grid import GridSpec
from repro.mitigation.activity import module_power_basis
from repro.mitigation.dummy_tsv import MitigationConfig
from repro.mitigation import dvfs
from repro.mitigation.dvfs import DVFSReport, _activity, _report
from repro.thermal.stack import stack_for_floorplan
from repro.thermal.steady_state import SolverCache
from repro.thermal.transient import PowerAt, TransientSolver, TransientTrace


def run_many_column_exact(
    solver: TransientSolver,
    power_ats: Sequence[PowerAt],
    duration: float,
    dt: float,
    t0: np.ndarray | None = None,
) -> List[TransientTrace]:
    """``run_many`` with one back-substitution per column: every trace is
    byte-identical to a solo ``solver.run`` (SuperLU's blocked multi-RHS
    substitution rounds differently past its panel width)."""
    fns = list(power_ats)
    lu = solver._factorize(dt)
    net = solver.network
    n_steps = int(round(duration / dt))
    batch = len(fns)
    temp = solver._initial(t0, batch=batch)
    num_dies = len(solver._power_layers)
    times = np.empty(n_steps)
    die_means = np.empty((batch, n_steps, num_dies))
    die_peaks = np.empty((batch, n_steps, num_dies))
    c_over_dt = net.capacitance / dt
    ambient_q = net.boundary * solver.stack.ambient
    q = np.empty((net.num_nodes, batch))
    for step in range(n_steps):
        t_now = (step + 1) * dt
        for b, fn in enumerate(fns):
            q[:, b] = net.power_vector(list(fn(t_now)))
        rhs = c_over_dt[:, None] * temp + q + ambient_q[:, None]
        temp = np.empty_like(rhs)
        for b in range(batch):
            temp[:, b] = lu.solve(rhs[:, b].copy())
        times[step] = t_now
        block = np.ascontiguousarray(np.moveaxis(temp[solver._die_nodes], 2, 0))
        die_means[:, step, :] = block.mean(axis=2)
        die_peaks[:, step, :] = block.max(axis=2)
    return [
        TransientTrace(
            times=times.copy(), die_means=die_means[b], die_peaks=die_peaks[b]
        )
        for b in range(batch)
    ]


def die_mean_kernels_serial(
    solver: TransientSolver, dt: float, steps: int
) -> np.ndarray:
    """``die_mean_kernels`` on the calling thread, die by die, one
    vector solve per step of each die's adjoint recursion."""
    lu = solver._factorize(dt)
    num_dies, cells = solver._die_nodes.shape
    kernels = np.empty((steps, num_dies, cells, num_dies))
    c_over_dt = solver.network.capacitance / dt
    for d in range(num_dies):
        w = np.zeros(solver.network.num_nodes)
        w[solver._die_nodes[d]] = 1.0 / cells
        for j in range(steps):
            w = lu.solve(w if j == 0 else c_over_dt * w)
            kernels[j, :, :, d] = w[solver._die_nodes]
    return kernels


def window_power_at(per_die_maps: List[np.ndarray]):
    """A ``power_at(t)`` callback stepping through per-window maps."""
    last = dvfs.WINDOWS - 1

    def power_at(t: float):
        step = int(round(t / dvfs.DT)) - 1
        w = min(step // dvfs.PERIOD, last)
        return [maps[w] for maps in per_die_maps]

    return power_at


def evaluate_dvfs_forward(
    floorplan: Floorplan3D,
    config: MitigationConfig | None = None,
    *,
    grid: GridSpec | None = None,
    topology=None,
    batched: bool = True,
) -> DVFSReport:
    """``evaluate_dvfs`` by integrating every trace forward.

    Equilibria come from a SuperLU solver, so a backward-Euler step from
    them is exact to rounding and the forward traces do not drift.
    ``batched`` integrates all traces column-exact through one
    factorization; ``batched=False`` runs them one at a time.
    """
    config = config or MitigationConfig(mode="dvfs")
    if grid is None:
        grid = GridSpec(floorplan.stack.outline, config.grid_nx, config.grid_ny)
    names = sorted(floorplan.placements)
    num_dies = floorplan.stack.num_dies
    basis = module_power_basis(floorplan, grid, names)
    shape = grid.shape
    solver = TransientSolver(stack_for_floorplan(floorplan, grid, topology))
    traces, windows, period = config.dvfs_traces, dvfs.WINDOWS, dvfs.PERIOD

    steady = SolverCache(backend="superlu").solver_for_floorplan(
        floorplan, grid, topology=topology
    )
    nominal_maps = [basis[d].sum(axis=0).reshape(shape) for d in range(num_dies)]
    mean_s3 = float(np.mean(dvfs.SCALES ** 3))
    t0_base = steady.solve(nominal_maps).nodal
    t0_gov = steady.solve([m * mean_s3 for m in nominal_maps]).nodal

    nominal, governed = _activity(config, len(names))
    window_power = np.empty((traces, windows, num_dies))
    baseline_fns, governed_fns = [], []
    for tr in range(traces):
        base_maps, governed_maps = [], []
        for d in range(num_dies):
            maps = (nominal[tr] @ basis[d]).reshape(windows, *shape)
            base_maps.append(maps)
            governed_maps.append((governed[tr] @ basis[d]).reshape(windows, *shape))
            window_power[tr, :, d] = maps.sum(axis=(1, 2))
        baseline_fns.append(window_power_at(base_maps))
        governed_fns.append(window_power_at(governed_maps))

    dt = dvfs.DT
    duration = windows * period * dt
    if batched:
        t0 = np.column_stack([t0_base] * traces + [t0_gov] * traces)
        all_traces = run_many_column_exact(
            solver, baseline_fns + governed_fns, duration, dt, t0=t0
        )
        base_traces, governed_traces = all_traces[:traces], all_traces[traces:]
    else:
        base_traces = [solver.run(fn, duration, dt, t0=t0_base) for fn in baseline_fns]
        governed_traces = [solver.run(fn, duration, dt, t0=t0_gov) for fn in governed_fns]

    # end-of-window samples: the attacker reads temperature once per dwell
    sample_idx = np.arange(windows) * period + period - 1

    def observe(trace_list) -> np.ndarray:
        return np.stack([t.die_means[sample_idx] for t in trace_list])

    return _report(window_power, observe(base_traces), observe(governed_traces))

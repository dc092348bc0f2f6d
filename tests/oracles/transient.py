"""Forward-integration oracle for the DVFS leakage evaluator.

``evaluate_dvfs`` reads end-of-window die means off adjoint response
kernels; this module keeps the path it replaced: every trace of both
arms integrated step by step, as its rise over the operating point of
its arm, either all traces at once column-exact or one at a time.  The
two forward variants are byte-identical to each other; the adjoint path
must match them within 1e-10.  It also keeps the kernels' exact
reference, every die's adjoint recursion step by step on the calling
thread, which the Lanczos model in ``die_mean_kernels`` must match
within 1e-10 of the kernels' largest entry.
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
from repro.thermal.transient import PowerAt, TransientSolver


def rise_die_means(
    solver: TransientSolver,
    power_ats: Sequence[PowerAt],
    duration: float,
    dt: float,
    batched: bool = True,
) -> np.ndarray:
    """Die means ``(traces, steps, dies)`` of backward Euler from rest,
    ``(C/dt + G) u_{n+1} = (C/dt) u_n + q_{n+1}``.

    ``power_ats`` give per-die power *deviations* from an operating
    point, so ``u`` is the rise over that operating point's equilibrium:
    no ambient term and no steady solve, and the rounding scales with the
    rise, not with the hundreds of kelvin of an absolute temperature.
    ``batched`` back-substitutes every trace's column each step, one
    column per call (SuperLU's blocked multi-RHS substitution rounds
    differently past its panel width); ``batched=False`` integrates the
    traces one at a time.
    """
    lu = solver._factorize(dt)
    net = solver.network
    nodes = solver._die_nodes
    n_steps = int(round(duration / dt))
    c_over_dt = net.capacitance / dt
    fns = list(power_ats)
    means = np.empty((len(fns), n_steps, len(nodes)))
    if batched:
        u = np.zeros((net.num_nodes, len(fns)))
        for step in range(n_steps):
            t_now = (step + 1) * dt
            q = np.column_stack([net.power_vector(list(fn(t_now))) for fn in fns])
            rhs = c_over_dt[:, None] * u + q
            u = np.column_stack([lu.solve(rhs[:, b].copy()) for b in range(len(fns))])
            block = np.ascontiguousarray(np.moveaxis(u[nodes], 2, 0))
            means[:, step, :] = block.mean(axis=2)
    else:
        for b, fn in enumerate(fns):
            u = np.zeros(net.num_nodes)
            for step in range(n_steps):
                q = net.power_vector(list(fn((step + 1) * dt)))
                u = lu.solve(c_over_dt * u + q)
                means[b, step, :] = u[nodes].mean(axis=1)
    return means


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

    Each arm is integrated as its rise over its operating point: the
    baseline's power deviation from the nominal mean, the governed arm's
    from ``E[scale^3]`` times it.  ``batched`` integrates all traces
    column-exact through one factorization; ``batched=False`` runs them
    one at a time.
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
    mean_s3 = float(np.mean(dvfs.SCALES ** 3))

    nominal, governed = _activity(config, len(names))
    window_power = np.empty((traces, windows, num_dies))
    baseline_fns, governed_fns = [], []
    for tr in range(traces):
        base_maps, governed_maps = [], []
        for d in range(num_dies):
            window_power[tr, :, d] = (nominal[tr] @ basis[d]).sum(axis=1)
            base_maps.append(((nominal[tr] - 1.0) @ basis[d]).reshape(windows, *shape))
            governed_maps.append(
                ((governed[tr] - mean_s3) @ basis[d]).reshape(windows, *shape)
            )
        baseline_fns.append(window_power_at(base_maps))
        governed_fns.append(window_power_at(governed_maps))

    duration = windows * period * dvfs.DT
    means = rise_die_means(
        solver, baseline_fns + governed_fns, duration, dvfs.DT, batched=batched
    )

    # end-of-window samples: the attacker reads temperature once per dwell
    sample_idx = np.arange(windows) * period + period - 1
    observed = means[:, sample_idx, :]
    return _report(window_power, observed[:traces], observed[traces:])

"""Gaussian activity sampling (Sec. 6.2).

"To impersonate an attacker triggering various activity patterns by
alternating the inputs at runtime, we model the power profiles of all
modules as Gaussian distributions ... with the module's nominal power
value as mean and a standard deviation of 10%."

A sample is a per-module multiplicative activity factor ~ N(1, sigma),
clipped at zero (no negative power); the power-map rasterizer applies it
on top of the voltage-scaled nominal power.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..layout.floorplan import Floorplan3D
from ..layout.grid import GridSpec, power_cells

__all__ = ["sample_power_maps"]


def module_power_basis(
    floorplan: Floorplan3D, grid: GridSpec, module_names: Sequence[str]
) -> List[np.ndarray]:
    """Per-die power-map basis: one rasterized unit-activity map per module.

    Entry ``d`` is a ``(len(module_names), ny * nx)`` matrix whose row m is
    module m's power-map contribution to die d at activity 1.0 (zero rows
    for modules on other dies).  Power maps are linear in the per-module
    activity factors, so any activity sample's map of die d is
    ``factors @ basis[d]`` — the batched form the Gaussian sampler uses.
    Every module's row comes from one :func:`~repro.layout.grid.power_cells`
    call; each row holds exactly the map ``rasterize_power`` gives that
    module alone.
    """
    placements = [floorplan.placements[name] for name in module_names]
    owner, cell, watts = power_cells(placements, grid)
    dies = np.array([p.die for p in placements], dtype=np.int64)
    basis = np.zeros((floorplan.stack.num_dies, len(placements), grid.nx * grid.ny))
    basis[dies[owner], owner, cell] = watts
    return list(basis)


def sample_power_maps(
    floorplan: Floorplan3D,
    grid: GridSpec,
    count: int = 100,
    sigma: float = 0.10,
    seed: int = 0,
) -> List[List[np.ndarray]]:
    """``count`` activity-perturbed power-map sets, batched.

    Returns a list of per-sample lists: ``result[i][d]`` is the power map
    of die d under activity sample i.  The paper samples 100 runs.

    The factors of all samples come from one draw of
    ``default_rng(seed)``, filled row-major, so sample i carries the i-th
    row of factors over the modules in name order.  All samples are
    rasterized in one matrix product against a per-module power basis
    instead of ``count * num_dies`` Python-loop rasterizations; the
    per-sample loop survives as the test oracle (equal to ~1e-12
    relative — the accumulation order differs).
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    names = sorted(floorplan.placements)
    factors = np.random.default_rng(seed).normal(1.0, sigma, size=(count, len(names)))
    factors = np.maximum(factors, 0.0)  # (count, modules)
    basis = module_power_basis(floorplan, grid, names)
    shape = grid.shape
    per_die = [(factors @ basis[d]).reshape(count, *shape) for d in
               range(floorplan.stack.num_dies)]
    return [
        [per_die[d][i] for d in range(floorplan.stack.num_dies)]
        for i in range(count)
    ]

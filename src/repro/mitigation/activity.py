"""Gaussian activity sampling (Sec. 6.2).

"To impersonate an attacker triggering various activity patterns by
alternating the inputs at runtime, we model the power profiles of all
modules as Gaussian distributions ... with the module's nominal power
value as mean and a standard deviation of 10%."

A sample is a per-module multiplicative activity factor; the power-map
rasterizer applies it on top of the voltage-scaled nominal power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..layout.floorplan import Floorplan3D
from ..layout.grid import GridSpec, power_cells

__all__ = ["ActivitySampler", "sample_power_maps"]


@dataclass
class ActivitySampler:
    """Draws per-module activity factors ~ N(1, sigma)."""

    module_names: Sequence[str]
    sigma: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    def sample(self) -> Dict[str, float]:
        """One activity set; factors are clipped at zero (no negative power)."""
        factors = self._rng.normal(1.0, self.sigma, size=len(self.module_names))
        return {
            name: float(max(0.0, f)) for name, f in zip(self.module_names, factors)
        }

    def sample_matrix(self, count: int) -> np.ndarray:
        """``(count, modules)`` activity factors in one draw.

        The generator fills the matrix row-major from the same stream as
        repeated :meth:`sample` calls, so the k-th row carries exactly the
        factors the k-th :meth:`sample` call would have produced.
        """
        factors = self._rng.normal(
            1.0, self.sigma, size=(count, len(self.module_names))
        )
        return np.maximum(factors, 0.0)


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

    All samples are rasterized in one matrix product against a per-module
    power basis instead of ``count * num_dies`` Python-loop
    rasterizations; the per-sample loop survives as the test oracle
    (equal to ~1e-12 relative — the accumulation order differs).
    """
    names = sorted(floorplan.placements)
    sampler = ActivitySampler(names, sigma=sigma, seed=seed)
    factors = sampler.sample_matrix(count)  # (count, modules)
    basis = module_power_basis(floorplan, grid, names)
    shape = grid.shape
    per_die = [(factors @ basis[d]).reshape(count, *shape) for d in
               range(floorplan.stack.num_dies)]
    return [
        [per_die[d][i] for d in range(floorplan.stack.num_dies)]
        for i in range(count)
    ]

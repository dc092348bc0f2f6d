"""Loop oracle for batched Gaussian activity sampling."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.layout.floorplan import Floorplan3D
from repro.layout.grid import GridSpec


def sample_power_maps_loop(
    floorplan: Floorplan3D,
    grid: GridSpec,
    count: int = 100,
    sigma: float = 0.10,
    seed: int = 0,
) -> List[List[np.ndarray]]:
    """Per-sample rasterization loop — what ``sample_power_maps`` must
    reproduce (to ~1e-12 relative; the accumulation order differs).

    Each sample draws its own row of factors from one
    ``default_rng(seed)`` stream, one module at a time in name order, so
    sample k gets the k-th row of the batched draw.
    """
    names = sorted(floorplan.placements)
    rng = np.random.default_rng(seed)
    out: List[List[np.ndarray]] = []
    for _ in range(count):
        factors = rng.normal(1.0, sigma, size=len(names))
        activity = {name: float(max(0.0, f)) for name, f in zip(names, factors)}
        out.append(
            [
                floorplan.power_map(d, grid, activity=activity)
                for d in range(floorplan.stack.num_dies)
            ]
        )
    return out

"""Loop oracle for batched Gaussian activity sampling."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.layout.floorplan import Floorplan3D
from repro.layout.grid import GridSpec
from repro.mitigation.activity import ActivitySampler


def sample_power_maps_loop(
    floorplan: Floorplan3D,
    grid: GridSpec,
    count: int = 100,
    sigma: float = 0.10,
    seed: int = 0,
) -> List[List[np.ndarray]]:
    """Per-sample rasterization loop — what ``sample_power_maps`` must
    reproduce (to ~1e-12 relative; the accumulation order differs)."""
    sampler = ActivitySampler(sorted(floorplan.placements), sigma=sigma, seed=seed)
    out: List[List[np.ndarray]] = []
    for _ in range(count):
        activity = sampler.sample()
        out.append(
            [
                floorplan.power_map(d, grid, activity=activity)
                for d in range(floorplan.stack.num_dies)
            ]
        )
    return out

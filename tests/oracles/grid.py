"""Loop oracle for power-map rasterization: one ``+=`` per module."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.layout.geometry import Rect
from repro.layout.grid import GridSpec
from repro.layout.module import Placement
from repro.power.voltages import power_scale_for


def accumulate_rect(out: np.ndarray, grid: GridSpec, rect: Rect, density: float) -> None:
    """Add ``density`` (value per um^2) into every cell overlapped by rect,
    weighted by the exact overlap area."""
    x1 = max(rect.x, grid.outline.x)
    y1 = max(rect.y, grid.outline.y)
    x2 = min(rect.x2, grid.outline.x2)
    y2 = min(rect.y2, grid.outline.y2)
    if x2 <= x1 or y2 <= y1:
        return
    cw, ch = grid.cell_w, grid.cell_h
    i1 = int((x1 - grid.outline.x) / cw)
    i2 = min(grid.nx - 1, int((x2 - grid.outline.x) / cw - 1e-12))
    j1 = int((y1 - grid.outline.y) / ch)
    j2 = min(grid.ny - 1, int((y2 - grid.outline.y) / ch - 1e-12))
    # per-axis overlap lengths; the outer product gives per-cell areas
    cols = np.arange(i1, i2 + 1)
    rows = np.arange(j1, j2 + 1)
    cx1 = grid.outline.x + cols * cw
    cy1 = grid.outline.y + rows * ch
    ox = np.minimum(x2, cx1 + cw) - np.maximum(x1, cx1)
    oy = np.minimum(y2, cy1 + ch) - np.maximum(y1, cy1)
    out[j1 : j2 + 1, i1 : i2 + 1] += density * np.outer(oy, ox)


def rasterize_power_loop(
    placements: Iterable[Placement],
    grid: GridSpec,
    die: int,
    activity: Mapping[str, float] | None = None,
) -> np.ndarray:
    """The map ``rasterize_power`` must reproduce bit for bit: each module
    on ``die`` adds its effective power density over its footprint, in
    ``placements`` order."""
    out = np.zeros(grid.shape, dtype=float)
    for p in placements:
        if p.die != die:
            continue
        act = 1.0 if activity is None else activity.get(p.name, 1.0)
        eff_power = p.module.power * power_scale_for(p.voltage) * act
        area = p.width * p.height
        if area <= 0 or eff_power == 0.0:
            continue
        accumulate_rect(out, grid, p.rect, eff_power / area)
    return out

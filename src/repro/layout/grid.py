"""Equidistant analysis grids and rasterization of module maps.

Power maps, thermal maps, and TSV density maps all share one grid
convention: an (ny, nx) array whose element [j, i] covers the cell with
lower-left corner (outline.x + i*cell_w, outline.y + j*cell_h).  The
leakage metrics (Eq. 1-3) require power and thermal grids with identical
dimensions; this module is the single place that builds them.

:func:`cell_overlaps` is the one rectangle/cell overlap kernel: power
maps, the per-module power basis of the activity sampler, and TSV
density maps (``layout.tsv``) all weight its overlap areas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Tuple

import numpy as np

from .geometry import Rect
from .module import Placement

__all__ = [
    "GridSpec",
    "cell_overlaps",
    "power_cells",
    "rasterize_power",
    "rasterize_rects",
]


@dataclass(frozen=True)
class GridSpec:
    """An nx x ny equidistant grid over a die outline."""

    outline: Rect
    nx: int = 64
    ny: int = 64

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid dimensions must be >= 1")

    @property
    def cell_w(self) -> float:
        return self.outline.w / self.nx

    @property
    def cell_h(self) -> float:
        return self.outline.h / self.ny

    @property
    def cell_area(self) -> float:
        return self.cell_w * self.cell_h

    @property
    def shape(self) -> Tuple[int, int]:
        """Numpy shape of maps on this grid: (ny, nx)."""
        return (self.ny, self.nx)

    def cell_rect(self, i: int, j: int) -> Rect:
        """The geometric extent of cell column i, row j."""
        return Rect(
            self.outline.x + i * self.cell_w,
            self.outline.y + j * self.cell_h,
            self.cell_w,
            self.cell_h,
        )

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """(i, j) indices of the cell containing point (x, y), clipped."""
        i = int((x - self.outline.x) / self.cell_w)
        j = int((y - self.outline.y) / self.cell_h)
        return (min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1))

    def cell_center(self, i: int, j: int) -> Tuple[float, float]:
        return (
            self.outline.x + (i + 0.5) * self.cell_w,
            self.outline.y + (j + 0.5) * self.cell_h,
        )


def cell_overlaps(
    x1: np.ndarray,
    y1: np.ndarray,
    x2: np.ndarray,
    y2: np.ndarray,
    grid: GridSpec,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (rectangle, cell) overlap of axis-aligned rectangles at once.

    Rectangles are given by their corner arrays and clipped to the
    outline.  Returns ``(owner, cell, area)``: the rectangle index, the
    flat cell index ``row * nx + column`` and the overlap area in um^2,
    ordered rectangle-major, then row, then column.  The arithmetic is a
    per-rectangle cell loop's, elementwise, so ``np.bincount`` over
    ``cell`` in this order reproduces such a loop's ``+=`` sums bit for
    bit.
    """
    outline = grid.outline
    nx, ny = grid.nx, grid.ny
    x1 = np.maximum(np.asarray(x1, dtype=float), outline.x)
    y1 = np.maximum(np.asarray(y1, dtype=float), outline.y)
    x2 = np.minimum(np.asarray(x2, dtype=float), outline.x2)
    y2 = np.minimum(np.asarray(y2, dtype=float), outline.y2)
    cell_w = grid.cell_w
    cell_h = grid.cell_h
    i1 = ((x1 - outline.x) / cell_w).astype(np.int64)
    i2 = np.minimum(nx - 1, ((x2 - outline.x) / cell_w - 1e-12).astype(np.int64))
    j1 = ((y1 - outline.y) / cell_h).astype(np.int64)
    j2 = np.minimum(ny - 1, ((y2 - outline.y) / cell_h - 1e-12).astype(np.int64))
    cols = np.maximum(i2 - i1 + 1, 0)
    rows = np.maximum(j2 - j1 + 1, 0)
    count = np.where((x2 > x1) & (y2 > y1), cols * rows, 0)
    owner = np.repeat(np.arange(x1.size, dtype=np.int64), count)
    first = np.cumsum(count) - count
    k = np.arange(owner.size, dtype=np.int64) - first[owner]
    width = cols[owner]
    j = j1[owner] + k // width
    i = i1[owner] + k % width
    cy1 = outline.y + j * cell_h
    oy = np.minimum(y2[owner], cy1 + cell_h) - np.maximum(y1[owner], cy1)
    cx1 = outline.x + i * cell_w
    ox = np.minimum(x2[owner], cx1 + cell_w) - np.maximum(x1[owner], cx1)
    return owner, j * nx + i, ox * oy


def _placement_arrays(placements: Sequence[Placement], activity):
    """``(power, x, y, w, h)`` of placements: effective watts, lower-left
    corners and footprint sizes, in ``placements`` order."""
    from ..power.voltages import scaled_power  # local import avoids cycle

    power = scaled_power([p.module.power for p in placements], [p.voltage for p in placements])
    if activity is not None:
        power = power * np.array([activity.get(p.name, 1.0) for p in placements], dtype=float)
    x, y, w, h = np.array(
        [(p.x, p.y, p.width, p.height) for p in placements], dtype=float
    ).reshape(-1, 4).T
    return power, x, y, w, h


def _rect_power_cells(power, x, y, w, h, grid: GridSpec):
    """:func:`power_cells` of rectangles given as arrays."""
    area = w * h
    keep = np.flatnonzero((area > 0) & (power != 0.0))
    density = power[keep] / area[keep]
    x, y = x[keep], y[keep]
    owner, cell, overlap = cell_overlaps(x, y, x + w[keep], y + h[keep], grid)
    return keep[owner], cell, density[owner] * overlap


def power_cells(
    placements: Sequence[Placement], grid: GridSpec
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(owner, cell, watts)``: each placement's power share per cell.

    A module spreads its *effective* power uniformly over its footprint:
    the nominal power scaled by its supply voltage's power factor.
    ``owner`` indexes ``placements``; zero-power modules contribute no
    entries.  Ordered as :func:`cell_overlaps`.
    """
    return _rect_power_cells(*_placement_arrays(placements, None), grid)


def rasterize_rects(
    power: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
    grid: GridSpec,
) -> np.ndarray:
    """Power map in W per cell, shape (ny, nx), of rectangles given as
    arrays: ``power`` watts spread uniformly over each footprint with
    lower-left corner ``(x, y)`` and size ``w`` x ``h``.  Rectangles
    accumulate in array order with one ``np.bincount``, so placements
    with this geometry and effective power, in this order, rasterize
    (:func:`rasterize_power`) to the same bytes."""
    _, cell, watts = _rect_power_cells(power, x, y, w, h, grid)
    out = np.bincount(cell, weights=watts, minlength=grid.nx * grid.ny)
    return out.reshape(grid.shape)


def rasterize_power(
    placements: Iterable[Placement],
    grid: GridSpec,
    die: int,
    activity: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Power map of one die in W per cell, shape (ny, nx): the die's
    placements through :func:`rasterize_rects`, in ``placements`` order."""
    on_die = [p for p in placements if p.die == die]
    return rasterize_rects(*_placement_arrays(on_die, activity), grid)

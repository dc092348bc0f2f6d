"""Through-silicon vias: signal TSVs, dummy thermal TSVs, and TSV islands.

TSVs are the paper's central structural lever: copper/tungsten TSVs act as
vertical "heat pipes" between stacked dies, and their number and
arrangement modulates the power-temperature correlation (Sec. 3).  This
module provides TSV records, island grouping, keep-out-zone accounting,
and rasterization of TSV density maps consumed by the thermal solvers.
Density maps weight the footprint/cell overlaps of the grid's one
overlap kernel, :func:`~repro.layout.grid.cell_overlaps`; signal-TSV
sites come from :meth:`~repro.layout.net.CompiledNetlist.sites`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .geometry import Rect
from .grid import GridSpec, cell_overlaps

__all__ = [
    "TSV",
    "TSVKind",
    "TSVIsland",
    "SignalSites",
    "tsv_density_map",
    "tsv_cell_occupancy",
    "place_regular_grid",
    "place_island",
]


class TSVKind:
    """Signal TSVs route inter-die nets; dummy thermal TSVs only move heat."""

    SIGNAL = "signal"
    THERMAL = "thermal"


@dataclass(frozen=True)
class TSV:
    """A single TSV located at (x, y), spanning dies ``die_from`` -> ``die_to``.

    ``diameter`` and ``keepout`` (the keep-out-zone margin around the via)
    are in um; together they define the occupied footprint used for density
    accounting: a square of side ``diameter + 2 * keepout``.
    """

    x: float
    y: float
    die_from: int
    die_to: int
    kind: str = TSVKind.SIGNAL
    diameter: float = 5.0
    keepout: float = 2.5

    def __post_init__(self) -> None:
        if self.diameter <= 0:
            raise ValueError("TSV diameter must be positive")
        if self.keepout < 0:
            raise ValueError("TSV keep-out margin must be non-negative")
        if self.die_from == self.die_to:
            raise ValueError("TSV must span two distinct dies")
        if self.kind not in (TSVKind.SIGNAL, TSVKind.THERMAL):
            raise ValueError(f"unknown TSV kind {self.kind!r}")

    @property
    def pitch(self) -> float:
        """Minimum centre-to-centre spacing implied by the keep-out zone."""
        return self.diameter + 2.0 * self.keepout


@dataclass(frozen=True)
class TSVIsland:
    """A rectangular group of densely packed TSVs ("TSV island").

    Islands pack vias at minimum pitch inside ``region``; Sec. 3 finds that
    distributed islands decorrelate thermal maps better than regular
    full-area TSV grids.
    """

    region: Rect
    die_from: int
    die_to: int
    kind: str = TSVKind.SIGNAL
    diameter: float = 5.0
    keepout: float = 2.5

    def vias(self) -> List[TSV]:
        """Materialize the individual TSVs packed at minimum pitch."""
        pitch = self.diameter + 2.0 * self.keepout
        nx = max(1, int(self.region.w // pitch))
        ny = max(1, int(self.region.h // pitch))
        xs = self.region.x + pitch / 2.0 + pitch * np.arange(nx)
        ys = self.region.y + pitch / 2.0 + pitch * np.arange(ny)
        return [
            TSV(
                float(x),
                float(y),
                self.die_from,
                self.die_to,
                kind=self.kind,
                diameter=self.diameter,
                keepout=self.keepout,
            )
            for x in xs
            for y in ys
        ]


def place_regular_grid(
    outline: Rect,
    count_x: int,
    count_y: int,
    die_from: int = 0,
    die_to: int = 1,
    kind: str = TSVKind.SIGNAL,
    diameter: float = 5.0,
    keepout: float = 2.5,
) -> List[TSV]:
    """Regularly arranged TSVs covering the outline in a count_x x count_y grid."""
    if count_x < 1 or count_y < 1:
        raise ValueError("grid counts must be >= 1")
    xs = outline.x + (np.arange(count_x) + 0.5) * outline.w / count_x
    ys = outline.y + (np.arange(count_y) + 0.5) * outline.h / count_y
    return [
        TSV(float(x), float(y), die_from, die_to, kind=kind, diameter=diameter, keepout=keepout)
        for x in xs
        for y in ys
    ]


def place_island(
    region: Rect,
    die_from: int = 0,
    die_to: int = 1,
    kind: str = TSVKind.SIGNAL,
    diameter: float = 5.0,
    keepout: float = 2.5,
) -> List[TSV]:
    """All TSVs of a densely packed island in ``region``."""
    island = TSVIsland(region, die_from, die_to, kind=kind, diameter=diameter, keepout=keepout)
    return island.vias()


@dataclass(frozen=True)
class SignalSites:
    """Signal-TSV sites of the die-crossing nets, in net order.

    Net ``k`` sits at ``(x[k], y[k])`` and crosses every interface
    ``(d, d + 1)`` with ``lo[k] <= d < hi[k]``: one TSV per crossing.
    """

    x: np.ndarray
    y: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def tsv_cell_occupancy(
    tsvs: Sequence[TSV],
    outline: Rect,
    nx: int,
    ny: int,
) -> np.ndarray:
    """Fraction of each grid cell's area occupied by TSV footprints.

    Returns an (ny, nx) array (row 0 = bottom of the die, matching the
    power-map convention).  Footprints are clipped to the outline; values
    are clipped to [0, 1] — overlapping keep-out zones cannot occupy more
    than the whole cell.  Footprints accumulate in ``tsvs`` order.
    """
    grid = GridSpec(outline, nx, ny)
    side = np.array([t.pitch for t in tsvs], dtype=float)
    fx = np.array([t.x for t in tsvs], dtype=float) - side / 2.0
    fy = np.array([t.y for t in tsvs], dtype=float) - side / 2.0
    _, cell, area = cell_overlaps(fx, fy, fx + side, fy + side, grid)
    occ = np.bincount(cell, weights=area / grid.cell_area, minlength=nx * ny)
    return np.clip(occ, 0.0, 1.0).reshape(ny, nx)


def tsv_density_map(
    tsvs: Sequence[TSV],
    outline: Rect,
    nx: int,
    ny: int,
    between: Tuple[int, int] | None = None,
) -> np.ndarray:
    """TSV footprint density map between a given die pair.

    ``between=(a, b)`` restricts to TSVs spanning exactly dies a..b (order
    insensitive); None takes all TSVs.
    """
    if between is not None:
        lo, hi = min(between), max(between)
        tsvs = [
            t
            for t in tsvs
            if min(t.die_from, t.die_to) <= lo and max(t.die_from, t.die_to) >= hi
        ]
    return tsv_cell_occupancy(tsvs, outline, nx, ny)

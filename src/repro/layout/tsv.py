"""Through-silicon vias: signal TSVs, dummy thermal TSVs, and TSV islands.

TSVs are the paper's central structural lever: copper/tungsten TSVs act as
vertical "heat pipes" between stacked dies, and their number and
arrangement modulates the power-temperature correlation (Sec. 3).  This
module provides TSV records, island grouping, keep-out-zone accounting,
and rasterization of TSV density maps consumed by the thermal solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .geometry import Rect
from .net import Net, Terminal

__all__ = [
    "TSV",
    "TSVKind",
    "TSVIsland",
    "SignalSites",
    "SiteNetlist",
    "interface_densities",
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

    @property
    def footprint(self) -> Rect:
        """The occupied square (via plus keep-out zone)."""
        side = self.pitch
        return Rect(self.x - side / 2.0, self.y - side / 2.0, side, side)

    @property
    def copper_area(self) -> float:
        """Cross-sectional copper area of the via barrel in um^2."""
        return math.pi * (self.diameter / 2.0) ** 2


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


class SiteNetlist:
    """A netlist compiled once for array-native signal-TSV site derivation.

    Per net: the module-pin columns (in ``net.modules`` order) followed by
    the terminal pins (in ``net.terminals`` order, unknown terminals
    skipped), grouped by pin count so each refresh takes every centroid
    as ``mean(axis=1)`` over one (nets, pins) matrix per group — the same
    pairwise summation ``np.mean`` applies to one net's pin list, so the
    sites are bit-identical to a per-net loop.  A ``reduceat`` sum divided
    by the pin count would not be.  Nets without a placed module never
    cross dies and are dropped.
    """

    def __init__(
        self,
        module_names: Sequence[str],
        nets: Sequence[Net],
        terminals: Mapping[str, Terminal],
    ) -> None:
        self.module_names = list(module_names)
        index = {n: i for i, n in enumerate(self.module_names)}
        num_modules = len(index)
        pin_idx: List[int] = []
        ptr: List[int] = [0]
        term_x: List[float] = []
        term_y: List[float] = []
        missing: List[Optional[str]] = []
        by_count: Dict[int, Tuple[List[int], List[List[int]]]] = {}
        for net in nets:
            mods = [index[m] for m in net.modules if m in index]
            if not mods:
                continue
            row = len(missing)
            missing.append(next((m for m in net.modules if m not in index), None))
            pin_idx.extend(mods)
            ptr.append(len(pin_idx))
            cols = list(mods)
            for t in net.terminals:
                term = terminals.get(t)
                if term is not None:
                    cols.append(num_modules + len(term_x))
                    term_x.append(term.x)
                    term_y.append(term.y)
            rows, matrix = by_count.setdefault(len(cols), ([], []))
            rows.append(row)
            matrix.append(cols)
        self.num_nets = len(missing)
        self.pin_idx = np.asarray(pin_idx, dtype=np.int64)
        self.starts = np.asarray(ptr[:-1], dtype=np.int64)
        self.term_x = np.asarray(term_x, dtype=float)
        self.term_y = np.asarray(term_y, dtype=float)
        self._missing = missing
        self._partial = np.array([m is not None for m in missing], dtype=bool)
        self._groups = [
            (np.asarray(rows, dtype=np.int64), np.asarray(matrix, dtype=np.int64))
            for rows, matrix in by_count.values()
        ]

    def sites(
        self,
        cx: np.ndarray,
        cy: np.ndarray,
        dies: np.ndarray,
        outline: Rect,
        margin: float,
    ) -> SignalSites:
        """Sites from per-module centres and dies (``module_names`` order).

        Centroids are clipped to ``margin`` inside the outline.  A crossing
        net with a pin on an unplaced module raises ``KeyError``.
        """
        if self.num_nets == 0:
            empty = np.zeros(0)
            none = np.zeros(0, dtype=np.int64)
            return SignalSites(empty, empty, none, none)
        pin_dies = np.asarray(dies, dtype=np.int64)[self.pin_idx]
        lo = np.minimum.reduceat(pin_dies, self.starts)
        hi = np.maximum.reduceat(pin_dies, self.starts)
        crossing = hi > lo
        partial = crossing & self._partial
        if partial.any():
            raise KeyError(self._missing[int(np.argmax(partial))])
        px = np.concatenate([cx, self.term_x])
        py = np.concatenate([cy, self.term_y])
        mx = np.empty(self.num_nets)
        my = np.empty(self.num_nets)
        for rows, cols in self._groups:
            mx[rows] = px[cols].mean(axis=1)
            my[rows] = py[cols].mean(axis=1)
        x = np.minimum(np.maximum(mx[crossing], outline.x + margin), outline.x2 - margin)
        y = np.minimum(np.maximum(my[crossing], outline.y + margin), outline.y2 - margin)
        return SignalSites(x, y, lo[crossing], hi[crossing])


def _footprint_cells(
    x: np.ndarray,
    y: np.ndarray,
    side: np.ndarray | float,
    outline: Rect,
    nx: int,
    ny: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (footprint, cell) overlap of square TSV footprints at once.

    Returns ``(owner, cell, fraction)``: the footprint index, the flat
    cell index ``row * nx + column`` and the fraction of the cell's area
    covered, ordered footprint-major, then row, then column.  Footprints
    are clipped to the outline; the arithmetic is a cell loop's,
    elementwise, so accumulating ``fraction`` in this order reproduces
    such a loop's sums bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    half = np.asarray(side, dtype=float) / 2.0
    fx = x - half
    fy = y - half
    x1 = np.maximum(fx, outline.x)
    y1 = np.maximum(fy, outline.y)
    x2 = np.minimum(fx + side, outline.x2)
    y2 = np.minimum(fy + side, outline.y2)
    cell_w = outline.w / nx
    cell_h = outline.h / ny
    i1 = ((x1 - outline.x) / cell_w).astype(np.int64)
    i2 = np.minimum(nx - 1, ((x2 - outline.x) / cell_w - 1e-12).astype(np.int64))
    j1 = ((y1 - outline.y) / cell_h).astype(np.int64)
    j2 = np.minimum(ny - 1, ((y2 - outline.y) / cell_h - 1e-12).astype(np.int64))
    cols = np.maximum(i2 - i1 + 1, 0)
    rows = np.maximum(j2 - j1 + 1, 0)
    count = np.where((x2 > x1) & (y2 > y1), cols * rows, 0)
    owner = np.repeat(np.arange(x.size, dtype=np.int64), count)
    first = np.cumsum(count) - count
    k = np.arange(owner.size, dtype=np.int64) - first[owner]
    width = cols[owner]
    j = j1[owner] + k // width
    i = i1[owner] + k % width
    cy1 = outline.y + j * cell_h
    oy = np.minimum(y2[owner], cy1 + cell_h) - np.maximum(y1[owner], cy1)
    cx1 = outline.x + i * cell_w
    ox = np.minimum(x2[owner], cx1 + cell_w) - np.maximum(x1[owner], cx1)
    return owner, j * nx + i, (ox * oy) / (cell_w * cell_h)


def interface_densities(
    sites: SignalSites,
    side: float,
    outline: Rect,
    nx: int,
    ny: int,
    num_dies: int,
) -> List[np.ndarray]:
    """Signal-TSV density map of every interface ``(d, d + 1)``, in [0, 1].

    Interface ``d`` holds the sites of the nets with ``lo <= d < hi``; all
    interfaces accumulate with one ``np.bincount``.  Equal, map for map,
    to ``tsv_density_map`` over the ``TSV`` objects the sites stand for.
    """
    layers = num_dies - 1
    if layers < 1:
        return []
    owner, cell, frac = _footprint_cells(sites.x, sites.y, side, outline, nx, ny)
    lo = sites.lo[owner]
    hi = sites.hi[owner]
    size = nx * ny
    on = [(lo <= d) & (d < hi) for d in range(layers)]
    occ = np.bincount(
        np.concatenate([cell[m] + d * size for d, m in enumerate(on)]),
        weights=np.concatenate([frac[m] for m in on]),
        minlength=layers * size,
    )
    return list(np.clip(occ, 0.0, 1.0).reshape(layers, ny, nx))


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
    x = np.array([t.x for t in tsvs], dtype=float)
    y = np.array([t.y for t in tsvs], dtype=float)
    side = np.array([t.pitch for t in tsvs], dtype=float)
    _, cell, frac = _footprint_cells(x, y, side, outline, nx, ny)
    occ = np.bincount(cell, weights=frac, minlength=nx * ny)
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

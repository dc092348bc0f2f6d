"""Nets connecting modules and die-boundary terminals.

Wirelength is measured as 3D half-perimeter wirelength (HPWL): the planar
half-perimeter of the net's bounding box plus a per-die-crossing TSV term.
This matches how Corblivar scores interconnects for stacked dies.

:class:`CompiledNetlist` compiles a netlist once into flat arrays: the
annealer's wirelength and the signal-TSV sites of every refresh both
read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .geometry import Rect
from .module import Placement
from .tsv import SignalSites

__all__ = ["Terminal", "Net", "CompiledNetlist", "net_hpwl_3d", "total_hpwl"]


@dataclass(frozen=True)
class Terminal:
    """A fixed I/O pin on the die outline (GSRC terminal)."""

    name: str
    x: float
    y: float


@dataclass(frozen=True)
class Net:
    """A multi-pin net over module names and terminal names.

    The first module listed is treated as the driver for timing purposes
    (GSRC benchmarks carry no direction information; this convention is the
    standard fallback).
    """

    name: str
    modules: Tuple[str, ...]
    terminals: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.modules) + len(self.terminals) < 2:
            raise ValueError(f"net {self.name!r}: needs at least two pins")

    @property
    def degree(self) -> int:
        return len(self.modules) + len(self.terminals)

    @property
    def driver(self) -> str | None:
        """Name of the driving module (None for terminal-only nets)."""
        return self.modules[0] if self.modules else None

    @property
    def sinks(self) -> Tuple[str, ...]:
        return self.modules[1:]


def net_hpwl_3d(
    net: Net,
    placements: Mapping[str, Placement],
    terminals: Mapping[str, Terminal],
    tsv_length: float,
) -> Tuple[float, int]:
    """3D HPWL and the number of die crossings for one net.

    Returns ``(wirelength_um, crossings)``.  The wirelength is the planar
    half-perimeter over all pin positions plus ``crossings * tsv_length``.
    The crossing count is the span of die indices used by the net's module
    pins (terminals sit on the package/bottom-die boundary and do not add
    crossings on their own).
    """
    xs: list[float] = []
    ys: list[float] = []
    dies: set[int] = set()
    for mod_name in net.modules:
        p = placements[mod_name]
        cx, cy = p.center
        xs.append(cx)
        ys.append(cy)
        dies.add(p.die)
    for term_name in net.terminals:
        t = terminals[term_name]
        xs.append(t.x)
        ys.append(t.y)
    if not xs:
        return 0.0, 0
    hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
    crossings = (max(dies) - min(dies)) if dies else 0
    return hpwl + crossings * tsv_length, crossings


def total_hpwl(
    nets: Iterable[Net],
    placements: Mapping[str, Placement],
    terminals: Mapping[str, Terminal],
    tsv_length: float,
) -> Tuple[float, int]:
    """Total 3D HPWL and total number of die crossings (signal TSV count)."""
    total = 0.0
    total_crossings = 0
    for net in nets:
        wl, crossings = net_hpwl_3d(net, placements, terminals, tsv_length)
        total += wl
        total_crossings += crossings
    return total, total_crossings


class CompiledNetlist:
    """Netlist compiled to flat arrays over ``module_names``.

    Nets without a pin on a known module are dropped.  Per kept net:

    * its module-pin run ``pin_idx[ptr[k]:ptr[k + 1]]`` (in
      ``net.modules`` order) and its known terminals' bounding box, so
      HPWL and die crossings come from ``np.maximum.reduceat`` over pin
      coordinates with no Python-level net loop;
    * its module-pin columns followed by its terminal columns (in
      ``net.terminals`` order, unknown terminals skipped), grouped by
      pin count, so :meth:`sites` takes every centroid as
      ``mean(axis=1)`` over one (nets, pins) matrix per group — the same
      pairwise summation ``np.mean`` applies to one net's pin list, so
      the sites are bit-identical to a per-net loop.  A ``reduceat`` sum
      divided by the pin count would not be.
    """

    def __init__(
        self,
        module_names: Sequence[str],
        nets: Sequence[Net],
        terminals: Mapping[str, Terminal],
    ) -> None:
        self.module_names = list(module_names)
        self.module_index: Dict[str, int] = {
            n: i for i, n in enumerate(self.module_names)
        }
        self.num_modules = len(self.module_names)
        pin_idx: List[int] = []
        ptr: List[int] = [0]
        term_x: List[float] = []
        term_y: List[float] = []
        bounds: List[Tuple[float, float, float, float]] = []
        missing: List[Optional[str]] = []
        by_count: Dict[int, Tuple[List[int], List[List[int]]]] = {}
        for net in nets:
            mods = [self.module_index[m] for m in net.modules if m in self.module_index]
            if not mods:
                continue
            row = len(missing)
            missing.append(
                next((m for m in net.modules if m not in self.module_index), None)
            )
            pin_idx.extend(mods)
            ptr.append(len(pin_idx))
            known = [terminals[t] for t in net.terminals if t in terminals]
            txs = [t.x for t in known]
            tys = [t.y for t in known]
            bounds.append(
                (min(txs), max(txs), min(tys), max(tys))
                if known
                else (np.inf, -np.inf, np.inf, -np.inf)
            )
            first_term = self.num_modules + len(term_x)
            cols = mods + list(range(first_term, first_term + len(known)))
            term_x.extend(txs)
            term_y.extend(tys)
            rows, matrix = by_count.setdefault(len(cols), ([], []))
            rows.append(row)
            matrix.append(cols)
        self.num_nets = len(missing)
        self.pin_idx = np.asarray(pin_idx, dtype=np.int64)
        self.ptr = np.asarray(ptr, dtype=np.int64)
        # known terminals' bounding box per net, (inf, -inf) without any
        self.term_min_x, self.term_max_x, self.term_min_y, self.term_max_y = (
            np.array(bounds, dtype=float).reshape(-1, 4).T.copy()
        )
        self.term_x = np.asarray(term_x, dtype=float)
        self.term_y = np.asarray(term_y, dtype=float)
        self._missing = missing
        self._partial = np.array([m is not None for m in missing], dtype=bool)
        self._groups = [
            (np.asarray(rows, dtype=np.int64), np.asarray(matrix, dtype=np.int64))
            for rows, matrix in by_count.values()
        ]

    def wirelength(
        self,
        centers_x: np.ndarray,
        centers_y: np.ndarray,
        dies: np.ndarray,
        tsv_length: float,
    ) -> Tuple[float, int]:
        """(total HPWL um, total crossings)."""
        if self.num_nets == 0:
            return 0.0, 0
        starts = self.ptr[:-1]
        px = centers_x[self.pin_idx]
        py = centers_y[self.pin_idx]
        pd = dies[self.pin_idx]
        max_x = np.maximum.reduceat(px, starts)
        min_x = np.minimum.reduceat(px, starts)
        max_y = np.maximum.reduceat(py, starts)
        min_y = np.minimum.reduceat(py, starts)
        max_d = np.maximum.reduceat(pd, starts)
        min_d = np.minimum.reduceat(pd, starts)
        hi_x = np.maximum(max_x, self.term_max_x)
        lo_x = np.minimum(min_x, self.term_min_x)
        hi_y = np.maximum(max_y, self.term_max_y)
        lo_y = np.minimum(min_y, self.term_min_y)
        crossings = (max_d - min_d).astype(np.int64)
        hpwl = (hi_x - lo_x) + (hi_y - lo_y) + crossings * tsv_length
        return float(hpwl.sum()), int(crossings.sum())

    def sites(
        self,
        cx: np.ndarray,
        cy: np.ndarray,
        dies: np.ndarray,
        outline: Rect,
        margin: float,
    ) -> SignalSites:
        """Signal-TSV sites from per-module centres and dies
        (``module_names`` order), one per die-crossing net, in net order.

        Centroids are clipped to ``margin`` inside the outline.  A crossing
        net with a pin on an unplaced module raises ``KeyError``.
        """
        if self.num_nets == 0:
            empty = np.zeros(0)
            none = np.zeros(0, dtype=np.int64)
            return SignalSites(empty, empty, none, none)
        starts = self.ptr[:-1]
        pin_dies = np.asarray(dies, dtype=np.int64)[self.pin_idx]
        lo = np.minimum.reduceat(pin_dies, starts)
        hi = np.maximum.reduceat(pin_dies, starts)
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

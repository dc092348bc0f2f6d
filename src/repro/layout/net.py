"""Nets connecting modules and die-boundary terminals.

Wirelength is measured as 3D half-perimeter wirelength (HPWL): the planar
half-perimeter of the net's bounding box plus a per-die-crossing TSV term.
This matches how Corblivar scores interconnects for stacked dies.

:class:`CompiledNetlist` is the one compilation of a netlist into flat
arrays, and :meth:`CompiledNetlist.pin_extents` the one place per-net
pin extents are computed: the annealer's and the floorplan's
wirelength, the signal-TSV sites of every refresh and the Elmore delays
of :class:`~repro.timing.paths.TimingGraph` all read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .geometry import Rect
from .tsv import SignalSites

__all__ = ["Terminal", "Net", "CompiledNetlist", "TSV_LENGTH_UM"]

#: wire length (um) one die crossing adds to a net: the TSV's height
TSV_LENGTH_UM = 50.0


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



class CompiledNetlist:
    """Netlist compiled to flat arrays over ``module_names``.

    Nets without a pin on a known module are dropped.  Per kept net:

    * its module-pin run ``pin_idx[ptr[k]:ptr[k + 1]]`` (in
      ``net.modules`` order) and its known terminals' bounding box, so
      HPWL and die crossings come from ``np.maximum.reduceat`` over pin
      coordinates with no Python-level net loop;
    * its Elmore sink count ``max(1, module pins - 1 + len(net.terminals))``
      (the first module pin drives; every other pin, terminals included,
      loads the net);
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
        sinks: List[int] = []
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
            sinks.append(max(1, len(mods) - 1 + len(net.terminals)))
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
        self.sink_counts = np.asarray(sinks, dtype=np.int64)
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

    def pin_extents(self, *values: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-net ``(min, max)`` over the module pins of each per-module
        array in ``values`` (``module_names`` order): centre coordinates
        give the pins' bounding box, dies their die span."""
        starts = self.ptr[:-1]
        out = []
        for v in values:
            pins = v[self.pin_idx]
            out.append((np.minimum.reduceat(pins, starts), np.maximum.reduceat(pins, starts)))
        return out

    def net_hpwl(
        self,
        cx: np.ndarray,
        cy: np.ndarray,
        dies: np.ndarray,
        terminals: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-net 3D HPWL (um) and die crossings, each crossing adding
        :data:`TSV_LENGTH_UM`.

        The bounding box spans the module pins, merged with the known
        terminals' box when ``terminals`` is set; the Elmore model
        (``terminals=False``) measures the module pins alone.
        """
        if self.num_nets == 0:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        (lo_x, hi_x), (lo_y, hi_y), (lo_d, hi_d) = self.pin_extents(cx, cy, dies)
        if terminals:
            hi_x = np.maximum(hi_x, self.term_max_x)
            lo_x = np.minimum(lo_x, self.term_min_x)
            hi_y = np.maximum(hi_y, self.term_max_y)
            lo_y = np.minimum(lo_y, self.term_min_y)
        crossings = (hi_d - lo_d).astype(np.int64)
        return (hi_x - lo_x) + (hi_y - lo_y) + crossings * TSV_LENGTH_UM, crossings

    def wirelength(
        self,
        centers_x: np.ndarray,
        centers_y: np.ndarray,
        dies: np.ndarray,
    ) -> Tuple[float, int]:
        """(total HPWL um, total crossings)."""
        hpwl, crossings = self.net_hpwl(centers_x, centers_y, dies)
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
        ((lo, hi),) = self.pin_extents(np.asarray(dies, dtype=np.int64))
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

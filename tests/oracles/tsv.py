"""Loop oracles for signal-TSV site derivation and TSV cell occupancy."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.layout.floorplan import Floorplan3D
from repro.layout.geometry import Rect
from repro.layout.tsv import TSV, TSVKind


def footprint(tsv: TSV) -> Rect:
    """The occupied square (via plus keep-out zone)."""
    side = tsv.pitch
    return Rect(tsv.x - side / 2.0, tsv.y - side / 2.0, side, side)


def place_signal_tsvs_loop(fp: Floorplan3D) -> List[TSV]:
    """The TSV list ``fp.place_signal_tsvs()`` must produce.

    Each die crossing of a net contributes one TSV placed at the clipped
    centroid of the net's pins (``np.mean`` over module centres, then
    terminal coordinates); dummy thermal TSVs are kept first.
    """
    outline = fp.stack.outline
    margin = fp.stack.tsv_pitch / 2.0
    new_tsvs: List[TSV] = [t for t in fp.tsvs if t.kind == TSVKind.THERMAL]
    for net in fp.nets:
        dies = {fp.placements[m].die for m in net.modules if m in fp.placements}
        if len(dies) < 2:
            continue
        xs = [fp.placements[m].center[0] for m in net.modules]
        ys = [fp.placements[m].center[1] for m in net.modules]
        for t in net.terminals:
            term = fp.terminals.get(t)
            if term is not None:
                xs.append(term.x)
                ys.append(term.y)
        cx = min(max(float(np.mean(xs)), outline.x + margin), outline.x2 - margin)
        cy = min(max(float(np.mean(ys)), outline.y + margin), outline.y2 - margin)
        lo, hi = min(dies), max(dies)
        for d in range(lo, hi):
            new_tsvs.append(
                TSV(
                    cx,
                    cy,
                    d,
                    d + 1,
                    kind=TSVKind.SIGNAL,
                    diameter=fp.stack.tsv_diameter,
                    keepout=fp.stack.tsv_keepout,
                )
            )
    return new_tsvs


def tsv_cell_occupancy_loop(
    tsvs: Sequence[TSV], outline: Rect, nx: int, ny: int
) -> np.ndarray:
    """Per-TSV, per-cell accumulation of footprint overlap fractions."""
    occ = np.zeros((ny, nx), dtype=float)
    if not tsvs:
        return occ
    cell_w = outline.w / nx
    cell_h = outline.h / ny
    cell_area = cell_w * cell_h
    for tsv in tsvs:
        fp = footprint(tsv)
        x1 = max(fp.x, outline.x)
        y1 = max(fp.y, outline.y)
        x2 = min(fp.x2, outline.x2)
        y2 = min(fp.y2, outline.y2)
        if x2 <= x1 or y2 <= y1:
            continue
        i1 = int((x1 - outline.x) / cell_w)
        i2 = min(nx - 1, int((x2 - outline.x) / cell_w - 1e-12))
        j1 = int((y1 - outline.y) / cell_h)
        j2 = min(ny - 1, int((y2 - outline.y) / cell_h - 1e-12))
        for j in range(j1, j2 + 1):
            cy1 = outline.y + j * cell_h
            cy2 = cy1 + cell_h
            oy = min(y2, cy2) - max(y1, cy1)
            for i in range(i1, i2 + 1):
                cx1 = outline.x + i * cell_w
                cx2 = cx1 + cell_w
                ox = min(x2, cx2) - max(x1, cx1)
                occ[j, i] += (ox * oy) / cell_area
    return np.clip(occ, 0.0, 1.0)


def tsv_density_map_loop(
    tsvs: Sequence[TSV], outline: Rect, nx: int, ny: int, between=None
) -> np.ndarray:
    """``tsv_density_map`` over the loop occupancy."""
    if between is not None:
        lo, hi = min(between), max(between)
        tsvs = [
            t
            for t in tsvs
            if min(t.die_from, t.die_to) <= lo and max(t.die_from, t.die_to) >= hi
        ]
    return tsv_cell_occupancy_loop(tsvs, outline, nx, ny)

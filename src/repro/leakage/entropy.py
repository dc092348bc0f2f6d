"""Spatial entropy of power maps (the paper's Eq. 3, after Claramunt).

The spatial entropy weighs every power class's Shannon term by a ratio of
its average intra-class and inter-class Manhattan distances:

    S_d = - sum_i w_i * (|c_i| / |C|) log2(|c_i| / |C|)

Claramunt's two principles — "(i) the closer the different entities, the
higher the spatial entropy; (ii) the closer the similar entities, the
lower the spatial entropy" — require the weight w_i = d_intra_i /
d_inter_i (clustered similar values shrink d_intra and the entropy;
interleaved different values shrink d_inter and raise it).  The paper's
Eq. 3 as printed shows the inverted ratio d_inter_i / d_intra_i, which
contradicts both principles and the paper's own empirical trend ("the
lower the spatial entropy, the lower the power-temperature correlation");
we treat that as a typo, default to the principled ``claramunt`` weight,
and keep the printed form available via ``weight="as_printed"``.

The metric needs no thermal solve, which is why the floorplanner can
afford it *every* iteration as a fast leakage proxy (Sec. 4.2).

Classes come from nested-means partitioning (sort, split at the mean,
recurse until the class standard deviation approaches zero).  Bin
coordinates are integer grid indices, so every class's intra- and
inter-class Manhattan sums follow exactly, in integer arithmetic, from
per-class coordinate histograms — no pairwise enumeration and no per-class
sorting, so 64x64 grids classify in about a millisecond.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["nested_means_classes", "spatial_entropy", "SpatialEntropyBreakdown"]


def nested_means_classes(
    values: np.ndarray,
    rtol: float = 0.05,
    max_depth: int = 4,
) -> np.ndarray:
    """Nested-means classification of a value array.

    Returns an integer label array of ``values.shape``; labels are dense
    (0..k-1) in ascending order of class mean.  Splitting stops when a
    class's standard deviation falls below ``rtol`` times the global
    standard deviation, when it cannot be split further, or at
    ``max_depth`` recursion levels.
    """
    flat = np.asarray(values, dtype=float).ravel()
    labels = np.zeros(flat.size, dtype=int)
    global_std = float(flat.std())
    if global_std == 0.0 or flat.size < 2:
        return labels.reshape(np.asarray(values).shape)
    threshold = rtol * global_std

    # iterative splitting (explicit stack avoids recursion limits)
    next_label = 1
    stack: List[Tuple[np.ndarray, int]] = [(np.arange(flat.size), 0)]
    while stack:
        idx, depth = stack.pop()
        vals = flat[idx]
        if idx.size < 2 or depth >= max_depth or vals.std() <= threshold:
            continue
        mean = vals.mean()
        left = idx[vals < mean]
        right = idx[vals >= mean]
        if left.size == 0 or right.size == 0:
            continue
        labels[right] = next_label
        next_label += 1
        stack.append((left, depth + 1))
        stack.append((right, depth + 1))

    # densify labels in ascending order of class mean
    unique = np.unique(labels)
    means = np.array([flat[labels == u].mean() for u in unique])
    order = np.argsort(means)
    rank = np.empty(int(unique[-1]) + 1, dtype=int)
    rank[unique[order]] = np.arange(order.size)
    return rank[labels].reshape(np.asarray(values).shape)


@dataclass
class SpatialEntropyBreakdown:
    """Per-class contributions to the spatial entropy (diagnostics)."""

    entropy: float
    class_sizes: List[int]
    inter_distances: List[float]
    intra_distances: List[float]
    contributions: List[float]


def _manhattan_sums(hist: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-class (intra, inter) sums of |a - b| along one axis, exactly.

    ``hist[c, a]`` counts class ``c``'s bins at coordinate ``a``.  The
    intra sum runs over the unordered pairs within class ``c``, the inter
    sum over the pairs of one bin in ``c`` and one outside it.
    """
    coords = np.arange(hist.shape[1])
    spread = hist @ np.abs(coords[:, None] - coords[None, :])
    intra = np.einsum("ca,ca->c", spread, hist) // 2
    inter = np.einsum("ca,ca->c", spread, hist.sum(axis=0) - hist)
    return intra, inter


def spatial_entropy(
    power_map: np.ndarray,
    rtol: float = 0.05,
    max_depth: int = 4,
    breakdown: bool = False,
    weight: str = "claramunt",
) -> float | SpatialEntropyBreakdown:
    """Eq. 3: spatial entropy S_d of one die's power map.

    Bin coordinates are grid indices (equidistant bins, Manhattan metric).
    ``weight`` selects the class weight: ``"claramunt"`` (default) uses
    d_intra/d_inter per Claramunt's principles; ``"as_printed"`` uses the
    paper's literal d_inter/d_intra (see module docstring).  Returns the
    scalar entropy, or a :class:`SpatialEntropyBreakdown` when
    ``breakdown=True``.
    """
    if weight not in ("claramunt", "as_printed"):
        raise ValueError(f"unknown weight form {weight!r}")
    pm = np.asarray(power_map, dtype=float)
    if pm.ndim != 2:
        raise ValueError("power map must be 2D")
    labels = nested_means_classes(pm, rtol=rtol, max_depth=max_depth)
    ny, nx = pm.shape
    total = labels.size
    classes = int(labels.max()) + 1 if total else 0
    rows = labels * ny + np.arange(ny)[:, None]
    cols = labels * nx + np.arange(nx)[None, :]
    hist_y = np.bincount(rows.ravel(), minlength=classes * ny).reshape(classes, ny)
    hist_x = np.bincount(cols.ravel(), minlength=classes * nx).reshape(classes, nx)
    intra_x, inter_x = _manhattan_sums(hist_x)
    intra_y, inter_y = _manhattan_sums(hist_y)
    class_sizes = hist_x.sum(axis=1)

    entropy = 0.0
    sizes: List[int] = []
    inters: List[float] = []
    intras: List[float] = []
    contribs: List[float] = []
    for c in range(classes):
        size = int(class_sizes[c])
        others = total - size
        # singleton classes get an intra-class distance of 0.5 cells — the
        # sub-resolution floor — so the inter/intra ratio stays finite
        intra = 0.5
        if size >= 2:
            pairs = size * (size - 1) / 2.0
            intra = max(float(intra_x[c] + intra_y[c]) / pairs, 0.5)
        inter = 0.0
        if others > 0:
            inter = float(inter_x[c] + inter_y[c]) / (float(size) * float(others))
        frac = size / total
        shannon = frac * np.log2(frac)
        if weight == "claramunt":
            ratio = intra / inter if inter > 0 else 0.0
        else:
            ratio = inter / intra if intra > 0 else 0.0
        contrib = -ratio * shannon
        entropy += contrib
        sizes.append(size)
        inters.append(inter)
        intras.append(intra)
        contribs.append(contrib)

    if breakdown:
        return SpatialEntropyBreakdown(
            entropy=float(entropy),
            class_sizes=sizes,
            inter_distances=inters,
            intra_distances=intras,
            contributions=contribs,
        )
    return float(entropy)

"""Loop oracle for the spatial entropy (Eq. 3): per-class sorted
prefix-sum Manhattan distances."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.leakage.entropy import NESTED_MEANS_MAX_DEPTH, NESTED_MEANS_RTOL


def nested_means_classes_loop(
    values: np.ndarray,
    rtol: float = NESTED_MEANS_RTOL,
    max_depth: int = NESTED_MEANS_MAX_DEPTH,
) -> np.ndarray:
    """Nested-means classification with a per-cell dict remap of labels."""
    flat = np.asarray(values, dtype=float).ravel()
    labels = np.zeros(flat.size, dtype=int)
    global_std = float(flat.std())
    if global_std == 0.0 or flat.size < 2:
        return labels.reshape(np.asarray(values).shape)
    threshold = rtol * global_std
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
    unique = np.unique(labels)
    means = np.array([flat[labels == u].mean() for u in unique])
    order = np.argsort(means)
    remap = {int(unique[o]): rank for rank, o in enumerate(order)}
    dense = np.array([remap[int(l)] for l in labels])
    return dense.reshape(np.asarray(values).shape)


def pairwise_manhattan_sum(xs: np.ndarray) -> float:
    """Sum over all unordered pairs of |xi - xj| in O(n log n).

    For sorted values x(1) <= ... <= x(n), the contribution of x(k) is
    ``x(k) * (k-1) - prefix_sum(k-1)`` — the classic sorted prefix-sum
    identity.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    n = xs.size
    if n < 2:
        return 0.0
    ranks = np.arange(n, dtype=float)
    prefix = np.concatenate(([0.0], np.cumsum(xs)[:-1]))
    return float(np.sum(xs * ranks - prefix))


def cross_manhattan_sum(xs_a: np.ndarray, xs_b: np.ndarray) -> float:
    """Sum over all pairs (a in A, b in B) of |a - b| in O(n log n).

    Identity: sum_{A x B} = sum_{A union B pairs} - sum_{A pairs} - sum_{B pairs},
    where the union is treated as a multiset.
    """
    xs_a = np.asarray(xs_a, dtype=float)
    xs_b = np.asarray(xs_b, dtype=float)
    if xs_a.size == 0 or xs_b.size == 0:
        return 0.0
    merged = np.concatenate([xs_a, xs_b])
    return (
        pairwise_manhattan_sum(merged)
        - pairwise_manhattan_sum(xs_a)
        - pairwise_manhattan_sum(xs_b)
    )


def class_distances(
    xs: np.ndarray, ys: np.ndarray, member: np.ndarray
) -> Tuple[float, float]:
    """(avg inter-class, avg intra-class) Manhattan distance for one class.

    Singleton classes get an intra-class distance of 0.5 cells.
    """
    mx, my = xs[member], ys[member]
    ox, oy = xs[~member], ys[~member]
    k = mx.size
    intra = 0.5
    if k >= 2:
        pairs = k * (k - 1) / 2.0
        intra = (pairwise_manhattan_sum(mx) + pairwise_manhattan_sum(my)) / pairs
        intra = max(intra, 0.5)
    inter = 0.0
    if ox.size > 0 and k > 0:
        cross_pairs = float(k) * float(ox.size)
        inter = (cross_manhattan_sum(mx, ox) + cross_manhattan_sum(my, oy)) / cross_pairs
    return inter, intra


def spatial_entropy_loop(
    power_map: np.ndarray,
    rtol: float = NESTED_MEANS_RTOL,
    max_depth: int = NESTED_MEANS_MAX_DEPTH,
    weight: str = "claramunt",
) -> float:
    """``spatial_entropy`` with one sort + cumsum pass per class and axis."""
    pm = np.asarray(power_map, dtype=float)
    labels = nested_means_classes_loop(pm, rtol=rtol, max_depth=max_depth)
    ny, nx = pm.shape
    ys, xs = np.mgrid[0:ny, 0:nx]
    xs = xs.ravel().astype(float)
    ys = ys.ravel().astype(float)
    flat_labels = labels.ravel()
    total = flat_labels.size

    entropy = 0.0
    for label in np.unique(flat_labels):
        member = flat_labels == label
        size = int(member.sum())
        frac = size / total
        inter, intra = class_distances(xs, ys, member)
        shannon = frac * np.log2(frac) if frac > 0 else 0.0
        if weight == "claramunt":
            ratio = intra / inter if inter > 0 else 0.0
        else:
            ratio = inter / intra if intra > 0 else 0.0
        entropy += -ratio * shannon
    return float(entropy)

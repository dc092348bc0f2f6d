"""Pearson correlation of power and thermal maps (the paper's Eq. 1).

The correlation coefficient r_d, computed per die over all grid locations,
is the paper's key leakage metric: the lower r_d, the lower the leakage of
power/activity patterns through the thermal side channel, in the same
spirit as the side-channel vulnerability factor (SVF).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pearson",
    "die_correlation",
    "local_correlation_map",
]


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Plain Pearson correlation of two equally shaped arrays.

    Returns 0.0 when either input is constant (zero variance) — a fully
    flat power or thermal map leaks nothing, and this convention keeps the
    metric well defined for artificial uniform scenarios (Sec. 3 probes
    exactly those).  Rounding can carry the quotient of a perfectly
    linear pair past 1 in magnitude; the result is clipped to [-1, 1].
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least two samples")
    da = a - a.mean()
    db = b - b.mean()
    na = float(np.sqrt((da * da).sum()))
    nb = float(np.sqrt((db * db).sum()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip((da * db).sum() / (na * nb), -1.0, 1.0))


def die_correlation(power_map: np.ndarray, thermal_map: np.ndarray) -> float:
    """Eq. 1: correlation r_d between one die's power and thermal maps."""
    if power_map.shape != thermal_map.shape:
        raise ValueError(
            "power and thermal maps must share grid dimensions "
            f"(got {power_map.shape} vs {thermal_map.shape})"
        )
    return pearson(power_map, thermal_map)


def _window_sums(a: np.ndarray, window: int) -> np.ndarray:
    """Truncated sliding-window sums via a summed-area table.

    ``out[j, i]`` is the sum of ``a`` over the (2*window+1)^2
    neighbourhood of (j, i), clipped at the map edges — exactly the
    windows the reference loop implementation visits.
    """
    ny, nx = a.shape
    sat = np.zeros((ny + 1, nx + 1))
    np.cumsum(np.cumsum(a, axis=0), axis=1, out=sat[1:, 1:])
    j = np.arange(ny)
    i = np.arange(nx)
    j0 = np.maximum(j - window, 0)
    j1 = np.minimum(j + window + 1, ny)
    i0 = np.maximum(i - window, 0)
    i1 = np.minimum(i + window + 1, nx)
    return (
        sat[np.ix_(j1, i1)]
        - sat[np.ix_(j0, i1)]
        - sat[np.ix_(j1, i0)]
        + sat[np.ix_(j0, i0)]
    )


def local_correlation_map(
    power_map: np.ndarray, thermal_map: np.ndarray, window: int = 5
) -> np.ndarray:
    """Windowed local Pearson correlation (diagnostic map).

    For each bin, correlates power and temperature over a
    (2*window+1)^2 neighbourhood.  Not part of the paper's equations but
    useful for visualizing *where* a die leaks (cf. Fig. 4's discussion of
    locally increased correlation after TSV insertion).

    Vectorized with integral images: all window sums come from one
    summed-area table per moment, so the cost is O(ny*nx) regardless of
    the window size — the previous per-bin loop was O(ny*nx*window^2)
    in Python; that loop survives as the test oracle.
    """
    if power_map.shape != thermal_map.shape:
        raise ValueError("maps must share dimensions")
    p_raw = np.asarray(power_map, dtype=float)
    t_raw = np.asarray(thermal_map, dtype=float)
    if p_raw.max() == p_raw.min() or t_raw.max() == t_raw.min():
        # a constant map has zero variance in every window
        return np.zeros(p_raw.shape)
    # subtracting the global mean leaves every windowed covariance and
    # variance unchanged but avoids catastrophic cancellation for maps
    # with large offsets (temperatures sit near 300 K)
    p = p_raw - p_raw.mean()
    t = t_raw - t_raw.mean()
    n = _window_sums(np.ones(p.shape), window)
    sp = _window_sums(p, window)
    st = _window_sums(t, window)
    spp = _window_sums(p * p, window)
    stt = _window_sums(t * t, window)
    spt = _window_sums(p * t, window)
    cov = spt - sp * st / n
    var_p = np.clip(spp - sp * sp / n, 0.0, None)
    var_t = np.clip(stt - st * st / n, 0.0, None)
    denom = np.sqrt(var_p * var_t)
    # the moment decomposition spp - sp^2/n cancels catastrophically in
    # windows whose mean sits far from the global mean relative to their
    # own spread (e.g. one huge outlier elsewhere in the map); only
    # well-conditioned windows take the O(1) path
    good = (var_p > 1e-6 * spp) & (var_t > 1e-6 * stt)
    out = np.zeros(p.shape)
    np.divide(cov, denom, out=out, where=good)
    # the cancellation-suspect windows — typically none — are recomputed
    # exactly, with the same two-pass arithmetic as the reference loop
    ny, nx = p.shape
    for j, i in zip(*np.nonzero(~good)):
        j0, j1 = max(0, j - window), min(ny, j + window + 1)
        i0, i1 = max(0, i - window), min(nx, i + window + 1)
        pw = p_raw[j0:j1, i0:i1].ravel()
        tw = t_raw[j0:j1, i0:i1].ravel()
        dp = pw - pw.mean()
        dt = tw - tw.mean()
        d = np.sqrt((dp * dp).sum() * (dt * dt).sum())
        out[j, i] = (dp * dt).sum() / d if d > 0 else 0.0
    return out

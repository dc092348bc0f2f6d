"""Runtime correlation stability (the paper's Eq. 2).

Eq. 1 captures a single steady-state snapshot; Eq. 2 captures how *stably*
power and temperature co-vary at each location across m different activity
sets.  High per-bin stability means an attacker modelling the thermal
leakage of that location succeeds across many inputs — those are exactly
the bins where the mitigation inserts dummy thermal TSVs (Sec. 6.2).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["stability_map", "most_stable_bins"]


def stability_map(
    power_samples: Sequence[np.ndarray], thermal_samples: Sequence[np.ndarray]
) -> np.ndarray:
    """Eq. 2: per-bin correlation r_{d,x,y} over m activity samples.

    ``power_samples`` and ``thermal_samples`` are length-m sequences of
    (ny, nx) maps for one die.  Bins whose power or temperature never
    varies get stability 0 (nothing to model there).
    """
    if len(power_samples) != len(thermal_samples):
        raise ValueError("need matching numbers of power and thermal samples")
    m = len(power_samples)
    if m < 2:
        raise ValueError("correlation stability needs at least two samples")
    p = np.stack([np.asarray(x, dtype=float) for x in power_samples])  # (m, ny, nx)
    t = np.stack([np.asarray(x, dtype=float) for x in thermal_samples])
    if p.shape != t.shape:
        raise ValueError(f"sample shape mismatch: {p.shape} vs {t.shape}")
    dp = p - p.mean(axis=0)
    dt = t - t.mean(axis=0)
    num = (dp * dt).sum(axis=0)
    denom = np.sqrt((dp * dp).sum(axis=0) * (dt * dt).sum(axis=0))
    out = np.zeros(num.shape)
    nonzero = denom > 0
    out[nonzero] = num[nonzero] / denom[nonzero]
    return out


def most_stable_bins(
    stability: np.ndarray, count: int, exclude: np.ndarray | None = None
) -> List[Tuple[int, int]]:
    """The ``count`` bins with the highest |stability|, as (row, col).

    ``exclude`` is an optional boolean mask of bins to skip (e.g. bins
    already saturated with TSVs).  Used by the dummy-TSV insertion stage.
    """
    score = np.abs(stability).copy()
    if exclude is not None:
        if exclude.shape != score.shape:
            raise ValueError("exclude mask must match stability shape")
        score[exclude] = -np.inf
    count = min(count, score.size)
    flat = np.argsort(score.ravel())[::-1][:count]
    return [tuple(np.unravel_index(int(ix), score.shape)) for ix in flat]

"""Loop oracle for the windowed local Pearson correlation map."""

from __future__ import annotations

import numpy as np


def local_correlation_map_loop(
    power_map: np.ndarray, thermal_map: np.ndarray, window: int = 5
) -> np.ndarray:
    """Reference O(ny*nx*window^2) implementation of
    ``local_correlation_map``: two-pass Pearson per window."""
    if power_map.shape != thermal_map.shape:
        raise ValueError("maps must share dimensions")
    ny, nx = power_map.shape
    out = np.zeros((ny, nx))
    for j in range(ny):
        j0, j1 = max(0, j - window), min(ny, j + window + 1)
        for i in range(nx):
            i0, i1 = max(0, i - window), min(nx, i + window + 1)
            p = power_map[j0:j1, i0:i1].ravel()
            t = thermal_map[j0:j1, i0:i1].ravel()
            dp = p - p.mean()
            dt = t - t.mean()
            denom = np.sqrt((dp * dp).sum() * (dt * dt).sum())
            out[j, i] = (dp * dt).sum() / denom if denom > 0 else 0.0
    return out

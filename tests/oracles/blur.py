"""scipy-based power blurring the in-repo ``gaussian_blur`` must reproduce.

The fast thermal model and the exploration power patterns used to blur
through ``scipy.ndimage.gaussian_filter(mode="nearest")``, one call per
(source, target) mask component.  That composition is kept here so tests
can compare the production kernel against it with ``==``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy.ndimage import gaussian_filter

from repro.thermal.fast import FastThermalModel, MaskParams, per_die_attenuation


def gaussian_filter_nearest(image, sigma: float) -> np.ndarray:
    return gaussian_filter(image, sigma, mode="nearest")


def respond(src: np.ndarray, params: MaskParams) -> np.ndarray:
    out = params.amplitude * gaussian_filter_nearest(src, params.sigma)
    if params.amplitude_global > 0:
        out = out + params.amplitude_global * gaussian_filter_nearest(
            src, params.sigma_global
        )
    return out


def estimate_scipy(
    model: FastThermalModel, power_maps: Sequence[np.ndarray], tsv_density=None
) -> List[np.ndarray]:
    """``FastThermalModel.estimate`` as a per-target sum of ``respond``."""
    shape = np.asarray(power_maps[0]).shape
    atten = per_die_attenuation(model.num_dies, shape, tsv_density, model.tsv_beta)
    sources = [power_maps[s] * atten[s] for s in range(model.num_dies)]
    out = []
    for t in range(model.num_dies):
        temp = np.full(shape, model.ambient, dtype=float)
        for s in range(model.num_dies):
            temp += respond(sources[s], model.masks[(s, t)])
        out.append(temp)
    return out

"""scipy's Gaussian blur, which the in-repo ``gaussian_blur`` must reproduce.

The exploration power patterns used to blur through
``scipy.ndimage.gaussian_filter(mode="nearest")``; that call is kept here
so tests can compare the production kernel against it.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter


def gaussian_filter_nearest(image, sigma: float) -> np.ndarray:
    return gaussian_filter(image, sigma, mode="nearest")

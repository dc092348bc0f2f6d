"""Synthetic power and TSV distribution patterns (Sec. 3, Fig. 2).

The paper's exploratory experiments cross five power-density
distributions with six TSV distributions on a two-die IC and study the
power-temperature correlation of each of the 30 combinations.  "Note that
some of these power and TSV distributions are impractical, yet relevant
for exploratory experiments."

Power patterns (per die, normalized to a target total power):

* ``globally_uniform``  — one constant density (artificial best case);
* ``locally_uniform``   — a tiling of regions, each internally constant
  ("groups of locally similar power regimes");
* ``small_gradients``   — a smooth random field with low contrast;
* ``medium_gradients``  — the same with moderate contrast;
* ``large_gradients``   — strong, localized power blobs.

TSV patterns (between the two dies):

* ``none``              — no TSVs;
* ``max_density``       — 100 % of the area covered by TSVs + keep-out;
* ``irregular``         — randomly scattered vias;
* ``irregular_regular`` — scattered vias plus a coarse regular grid;
* ``islands``           — a few densely packed rectangular TSV islands;
* ``islands_regular``   — islands plus a coarse regular grid.

The gradient patterns smooth random fields with :func:`gaussian_blur`, a
blur by two matrix products, ``B_y @ P @ B_xᵀ``, with the replicate-edge
operators of :func:`_blur_operator`.  It agrees with
``scipy.ndimage.gaussian_filter(mode="nearest")`` to a stated relative
tolerance (``tests/test_fast_thermal.py``), not bit for bit, and a cold
process never imports ``scipy.ndimage``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..layout.die import StackConfig
from ..layout.geometry import Rect
from ..layout.grid import GridSpec
from ..layout.tsv import (
    TSV,
    TSV_DIAMETER,
    TSV_KEEPOUT,
    place_island,
    place_regular_grid,
    tsv_density_map,
)

__all__ = [
    "POWER_PATTERNS",
    "TSV_PATTERNS",
    "power_pattern",
    "tsv_pattern",
    "pattern_names",
]


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def _half_kernel(sigma: float) -> np.ndarray:
    """scipy's Gaussian weights from the centre outward: ``exp(-0.5 /
    sigma^2 * x^2)`` over ``|x| <= int(4 sigma + 0.5)``, divided by their
    sum."""
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return (phi / phi.sum())[radius:]


def _blur_operator(sigma: float, n: int) -> np.ndarray:
    """The replicate-edge Gaussian blur of an ``n``-cell axis as an
    ``(n, n)`` matrix: row ``i`` holds output cell ``i``'s weight on
    every input cell.

    The weights are scipy's (:func:`_half_kernel`, mirrored); a tap past
    either end lands on the edge cell, so a kernel wider than the axis
    needs no special case.
    """
    half = _half_kernel(sigma)
    taps = np.concatenate([half[:0:-1], half])
    offsets = np.arange(1 - len(half), len(half))
    rows = np.repeat(np.arange(n), len(taps))
    cols = np.clip(rows + np.tile(offsets, n), 0, n - 1)
    operator = np.zeros((n, n))
    np.add.at(operator, (rows, cols), np.tile(taps, n))
    return operator


def gaussian_blur(image, sigma: float) -> np.ndarray:
    """Gaussian blur of the last two axes, edges replicated.

    ``B_y @ P @ B_xᵀ`` with :func:`_blur_operator` matrices: within a
    stated relative tolerance (``tests/test_fast_thermal.py``) of
    ``scipy.ndimage.gaussian_filter(image, sigma, mode="nearest")`` on a
    2-D float map; a stack ``(..., ny, nx)`` blurs each map independently,
    exactly as one map.  The result is C-ordered.
    """
    image = np.asarray(image, dtype=float)
    ny, nx = image.shape[-2:]
    return _blur_operator(sigma, ny) @ image @ _blur_operator(sigma, nx).T


# ---------------------------------------------------------------------------
# power patterns
# ---------------------------------------------------------------------------

def _normalize(pm: np.ndarray, total_w: float) -> np.ndarray:
    s = pm.sum()
    if s <= 0:
        return np.full(pm.shape, total_w / pm.size)
    return pm * (total_w / s)


def _globally_uniform(grid: GridSpec, total_w: float, rng: np.random.Generator) -> np.ndarray:
    return np.full(grid.shape, total_w / (grid.nx * grid.ny))


def _locally_uniform(grid: GridSpec, total_w: float, rng: np.random.Generator) -> np.ndarray:
    tiles = 4
    levels = rng.choice([0.4, 0.8, 1.2, 1.8], size=(tiles, tiles))
    pm = np.kron(levels, np.ones((grid.ny // tiles + 1, grid.nx // tiles + 1)))
    pm = pm[: grid.ny, : grid.nx]
    return _normalize(pm, total_w)


def _random_field(
    grid: GridSpec, rng: np.random.Generator, smooth: float, contrast: float
) -> np.ndarray:
    field = rng.random(grid.shape)
    field = gaussian_blur(field, smooth)
    field -= field.min()
    if field.max() > 0:
        field /= field.max()
    return 1.0 + contrast * (field - 0.5)


def _small_gradients(grid: GridSpec, total_w: float, rng: np.random.Generator) -> np.ndarray:
    return _normalize(_random_field(grid, rng, smooth=8.0, contrast=0.5), total_w)


def _medium_gradients(grid: GridSpec, total_w: float, rng: np.random.Generator) -> np.ndarray:
    return _normalize(_random_field(grid, rng, smooth=5.0, contrast=1.2), total_w)


def _large_gradients(grid: GridSpec, total_w: float, rng: np.random.Generator) -> np.ndarray:
    pm = 0.15 * np.ones(grid.shape)
    for _ in range(4):
        j = int(rng.integers(grid.ny // 8, grid.ny - grid.ny // 8))
        i = int(rng.integers(grid.nx // 8, grid.nx - grid.nx // 8))
        blob = np.zeros(grid.shape)
        blob[j, i] = 1.0
        pm += gaussian_blur(blob, 2.5) * 60.0
    return _normalize(pm, total_w)


POWER_PATTERNS: Dict[str, Callable[[GridSpec, float, np.random.Generator], np.ndarray]] = {
    "globally_uniform": _globally_uniform,
    "locally_uniform": _locally_uniform,
    "small_gradients": _small_gradients,
    "medium_gradients": _medium_gradients,
    "large_gradients": _large_gradients,
}


def power_pattern(
    name: str, grid: GridSpec, total_w: float, seed: int = 0
) -> np.ndarray:
    """One of the five Sec. 3 power maps, in W per cell."""
    try:
        fn = POWER_PATTERNS[name]
    except KeyError:
        raise KeyError(
            f"unknown power pattern {name!r}; available: {', '.join(POWER_PATTERNS)}"
        ) from None
    return fn(grid, total_w, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# TSV patterns
# ---------------------------------------------------------------------------

def _tsvs_none(stack: StackConfig, rng: np.random.Generator) -> List[TSV]:
    return []


def _tsvs_irregular(stack: StackConfig, rng: np.random.Generator) -> List[TSV]:
    outline = stack.outline
    margin = stack.tsv_pitch
    count = 160
    xs = rng.uniform(outline.x + margin, outline.x2 - margin, count)
    ys = rng.uniform(outline.y + margin, outline.y2 - margin, count)
    return [
        TSV(float(x), float(y), 0, 1, diameter=TSV_DIAMETER, keepout=TSV_KEEPOUT)
        for x, y in zip(xs, ys)
    ]


def _tsvs_regular(stack: StackConfig, rng: np.random.Generator) -> List[TSV]:
    return place_regular_grid(
        stack.outline, 16, 16, diameter=TSV_DIAMETER, keepout=TSV_KEEPOUT
    )


def _tsvs_irregular_regular(stack: StackConfig, rng: np.random.Generator) -> List[TSV]:
    return _tsvs_irregular(stack, rng) + _tsvs_regular(stack, rng)


def _tsvs_islands(stack: StackConfig, rng: np.random.Generator) -> List[TSV]:
    outline = stack.outline
    out: List[TSV] = []
    island_side = outline.w / 10.0
    for _ in range(5):
        x = float(rng.uniform(outline.x, outline.x2 - island_side))
        y = float(rng.uniform(outline.y, outline.y2 - island_side))
        out.extend(
            place_island(
                Rect(x, y, island_side, island_side),
                diameter=TSV_DIAMETER,
                keepout=TSV_KEEPOUT,
            )
        )
    return out


def _tsvs_islands_regular(stack: StackConfig, rng: np.random.Generator) -> List[TSV]:
    return _tsvs_islands(stack, rng) + _tsvs_regular(stack, rng)


TSV_PATTERNS: Dict[str, Callable[[StackConfig, np.random.Generator], List[TSV]]] = {
    "none": _tsvs_none,
    "max_density": None,  # handled specially: full-coverage density map
    "irregular": _tsvs_irregular,
    "irregular_regular": _tsvs_irregular_regular,
    "islands": _tsvs_islands,
    "islands_regular": _tsvs_islands_regular,
}


def tsv_pattern(
    name: str, stack: StackConfig, grid: GridSpec, seed: int = 0
) -> Tuple[List[TSV], np.ndarray]:
    """One of the six Sec. 3 TSV arrangements.

    Returns ``(tsvs, density_map)``.  ``max_density`` has no per-via list
    (100 % coverage is "all of the area covered by TSVs and their
    keep-out zones"); its density map is all ones.
    """
    if name not in TSV_PATTERNS:
        raise KeyError(
            f"unknown TSV pattern {name!r}; available: {', '.join(TSV_PATTERNS)}"
        )
    if name == "max_density":
        return [], np.ones(grid.shape)
    fn = TSV_PATTERNS[name]
    tsvs = fn(stack, np.random.default_rng(seed))
    density = tsv_density_map(tsvs, stack.outline, grid.nx, grid.ny, between=(0, 1))
    return tsvs, density


def pattern_names() -> Tuple[List[str], List[str]]:
    """(power pattern names, TSV pattern names) in presentation order."""
    return list(POWER_PATTERNS), list(TSV_PATTERNS)

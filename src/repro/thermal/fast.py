"""Fast in-loop thermal estimation: the exact solve of the TSV-free stack.

Corblivar continuously estimates temperatures inside the annealing loop
with a fast analysis, and like the paper we treat that analysis as
*inferior but cheap* and verify final results with the detailed one
(Sec. 6).  Here the fast analysis is the exact steady state of the stack
*without* TSVs: that stack is laterally uniform, so the exact solve of
its homogenized stack (two DCT-II basis changes and a Thomas sweep along
z; :class:`~repro.thermal.backends.spectral.HomogenizedStack`) is its
direct solve, with no CG and no sparse factorization.  The TSVs'
heat-pipe effect (Sec. 3) enters only the detailed analyses after the
anneal; the in-loop score ranks layouts by their power maps alone.

:func:`gaussian_blur` (the exploration power patterns' smoothing) is a
blur by two matrix products, ``B_y @ P @ B_xᵀ``, with the replicate-edge
operators of :func:`_blur_operator`.  It agrees with
``scipy.ndimage.gaussian_filter(mode="nearest")`` to a stated relative
tolerance (``tests/test_fast_thermal.py``), not bit for bit, and a cold
process never imports ``scipy.ndimage``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..layout.die import StackConfig
from ..layout.grid import GridSpec
from .backends.spectral import HomogenizedStack
from .rc_network import assemble
from .stack import build_stack

__all__ = ["FastThermalModel", "gaussian_blur"]


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


class FastThermalModel:
    """Per-die temperature maps of one (stack, grid) without TSVs.

    The 3D stack without TSVs is laterally uniform, so its homogenized
    stack is the stack itself, and :meth:`estimate` is one exact solve of
    it.  The model keeps that
    :class:`~repro.thermal.backends.spectral.HomogenizedStack`, the power
    layers and the ambient boundary term; the stack and its assembled
    network are dropped once they are derived.  It holds no mutable
    state, so one instance serves concurrent estimates.
    """

    def __init__(self, stack_cfg: StackConfig, grid: GridSpec) -> None:
        stack = build_stack(stack_cfg, grid)
        network = assemble(stack)
        self._homogenized = HomogenizedStack(network.conductance, network.grid_shape)
        self._layers = [layer for layer, _ in stack.power_layers()]
        self._ambient_q = network.boundary * stack.ambient
        self.num_dies = len(self._layers)

    def estimate(self, power_maps: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Per-die temperature maps (K) for the given power maps (W/cell)."""
        if len(power_maps) != self.num_dies:
            raise ValueError(f"expected {self.num_dies} power maps, got {len(power_maps)}")
        q = np.zeros(self._homogenized.grid_shape)
        for die, (layer, pm) in enumerate(zip(self._layers, power_maps)):
            pm = np.asarray(pm, dtype=float)
            if pm.shape != q.shape[1:]:
                raise ValueError(f"power map for die {die}: shape {pm.shape} != {q.shape[1:]}")
            q[layer] = pm
        t = self._homogenized.solve(q.ravel() + self._ambient_q)
        return list(t.reshape(q.shape)[self._layers])

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
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..layout.die import StackConfig
from ..layout.grid import GridSpec
from .backends.spectral import HomogenizedStack
from .rc_network import assemble
from .stack import build_stack

__all__ = ["FastThermalModel"]


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

"""Finite-volume thermal RC network assembly.

Discretizes a :class:`~repro.thermal.stack.ThermalStack` into one node per
(layer, row, col) cell and assembles the conductance matrix G (W/K) and
capacitance vector C (J/K):

* vertical coupling between stacked cells: series combination of the two
  half-cell resistances, ``g = A / (t_a / (2 k_a) + t_b / (2 k_b))``;
* lateral coupling inside a layer: harmonic-mean conductivity over the
  shared face, ``g = k_hm * t * len_face / dist``;
* boundary coupling: per-area resistances to the ambient at the top
  (heatsink/convection) and bottom (package, the secondary path); lateral
  stack faces are adiabatic, as in HotSpot's grid model.

The steady-state problem is ``G T = q`` with the ambient folded into q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
import scipy.sparse as sp

from .stack import R_TOP_AREA, ThermalStack

__all__ = ["ThermalNetwork", "LowRankUpdate", "assemble", "low_rank_update"]

#: micrometres -> metres (grids carry um geometry)
_UM = 1e-6


@dataclass
class ThermalNetwork:
    """Assembled network: sparse G, capacitances, boundary conductances."""

    stack: ThermalStack
    conductance: sp.csc_matrix  # (N, N), includes boundary terms on diagonal
    capacitance: np.ndarray  # (N,) J/K
    boundary: np.ndarray  # (N,) W/K conductance to ambient

    @property
    def num_nodes(self) -> int:
        return self.capacitance.size

    @property
    def grid_shape(self) -> tuple:
        """Layer-major ``(layers, ny, nx)`` node-numbering shape.

        Node ``(layer, row, col)`` is the raveled index into this box;
        both backends rely on it (spectral homogenizes each layer of it
        and transforms it in a cosine basis, band renumbers it).
        """
        grid = self.stack.grid
        return (self.stack.num_layers, grid.ny, grid.nx)

    def factor_hints(self):
        """Structural hints for the factorization-backend layer."""
        from .backends.base import FactorHints

        return FactorHints(grid_shape=self.grid_shape, has_tsvs=self.stack.has_tsvs)

    def power_vector(self, power_maps: List[np.ndarray]) -> np.ndarray:
        """Assemble the nodal power vector from per-die power maps (W/cell).

        ``power_maps[d]`` feeds the active layer of die ``d`` — the whole
        layer on a 3D stack, the die's site on a 2.5D interposer stack.
        Missing trailing dies default to zero power.
        """
        grid = self.stack.grid
        expected = self.stack.die_map_shape()
        q = np.zeros(self.num_nodes)
        for layer_idx, die in self.stack.power_layers():
            if die < len(power_maps) and power_maps[die] is not None:
                pm = np.asarray(power_maps[die], dtype=float)
                if pm.shape != expected:
                    raise ValueError(
                        f"power map for die {die}: shape {pm.shape} != {expected}"
                    )
                base = layer_idx * grid.ny * grid.nx
                layer_view = q[base : base + grid.ny * grid.nx].reshape(grid.shape)
                layer_view[self.stack.site_slice(die)] = pm
        return q


@dataclass
class LowRankUpdate:
    """A localized conductance perturbation, ``G' = G + U·C·Uᵀ``.

    ``U`` is the (implicit) column-selection matrix of the ``rank``
    touched node indices and ``C`` the dense ``ΔG`` block over them, so
    the perturbed system never has to be refactorized: a dummy-TSV
    insertion into a handful of bins touches only the pierced bond/bulk
    cells, their lateral neighbours, and the secondary-path boundary
    nodes beneath them, and the Woodbury identity solves ``G'`` through
    the *base* factorization plus an r×r dense core (see
    :class:`~repro.thermal.steady_state.WoodburySolver`).
    """

    #: sorted node indices whose rows/columns of G changed (the set S)
    indices: np.ndarray
    #: dense ``(G' - G)[S, S]`` — symmetric, like G itself
    core: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.indices.size)


def low_rank_update(
    base: ThermalNetwork, modified: ThermalNetwork
) -> LowRankUpdate:
    """Express ``modified``'s conductance as a low-rank update of ``base``'s.

    Both networks must discretize the same grid and layer count (same
    node numbering).  Untouched cells assemble to bit-identical
    conductances, so the support of ``G' - G`` is exactly the touched
    node set — no tolerance games needed.  The returned rank is the
    caller's cue for the Woodbury-vs-refactorize crossover decision.
    """
    if base.conductance.shape != modified.conductance.shape:
        raise ValueError(
            f"cannot express a {modified.conductance.shape} network as an "
            f"update of a {base.conductance.shape} one"
        )
    delta = (modified.conductance - base.conductance).tocoo()
    mask = delta.data != 0.0
    rows, cols, vals = delta.row[mask], delta.col[mask], delta.data[mask]
    indices = np.unique(np.concatenate([rows, cols]))
    core = np.zeros((indices.size, indices.size))
    # subtraction of two CSC matrices never duplicates coordinates, so a
    # plain scatter (not add.at) is enough
    core[np.searchsorted(indices, rows), np.searchsorted(indices, cols)] = vals
    return LowRankUpdate(indices=indices, core=core)


def assemble(stack: ThermalStack) -> ThermalNetwork:
    """Build the sparse conductance matrix and capacitance vector."""
    grid = stack.grid
    nx, ny = grid.nx, grid.ny
    nl = stack.num_layers
    n_per_layer = nx * ny
    n = nl * n_per_layer

    cw = grid.cell_w * _UM
    ch = grid.cell_h * _UM
    cell_area = cw * ch

    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    diag = np.zeros(n)

    def add_pairs(idx_a: np.ndarray, idx_b: np.ndarray, g: np.ndarray) -> None:
        """Symmetric off-diagonal entries -g plus diagonal accumulation."""
        rows.append(idx_a)
        cols.append(idx_b)
        vals.append(-g)
        rows.append(idx_b)
        cols.append(idx_a)
        vals.append(-g)
        np.add.at(diag, idx_a, g)
        np.add.at(diag, idx_b, g)

    layer_base = [l * n_per_layer for l in range(nl)]
    cell_idx = np.arange(n_per_layer).reshape(ny, nx)

    # lateral coupling (x neighbours and y neighbours per layer)
    for li, layer in enumerate(stack.layers):
        kl = layer.k_lateral
        t = layer.thickness
        # x-direction: face area = t * ch, distance cw
        k_hm = 2.0 * kl[:, :-1] * kl[:, 1:] / (kl[:, :-1] + kl[:, 1:])
        g = k_hm * t * ch / cw
        a = layer_base[li] + cell_idx[:, :-1].ravel()
        b = layer_base[li] + cell_idx[:, 1:].ravel()
        add_pairs(a, b, g.ravel())
        # y-direction: face area = t * cw, distance ch
        k_hm = 2.0 * kl[:-1, :] * kl[1:, :] / (kl[:-1, :] + kl[1:, :])
        g = k_hm * t * cw / ch
        a = layer_base[li] + cell_idx[:-1, :].ravel()
        b = layer_base[li] + cell_idx[1:, :].ravel()
        add_pairs(a, b, g.ravel())

    # vertical coupling between consecutive layers
    for li in range(nl - 1):
        la, lb = stack.layers[li], stack.layers[li + 1]
        r = la.thickness / (2.0 * la.k_vertical) + lb.thickness / (2.0 * lb.k_vertical)
        g = (cell_area / r).ravel()
        a = layer_base[li] + cell_idx.ravel()
        b = layer_base[li + 1] + cell_idx.ravel()
        add_pairs(a, b, g)

    # boundary conductances to ambient
    boundary = np.zeros(n)
    top = stack.layers[-1]
    g_top = cell_area / (R_TOP_AREA + top.thickness / (2.0 * top.k_vertical))
    idx_top = layer_base[-1] + cell_idx.ravel()
    boundary[idx_top] += np.asarray(g_top, dtype=float).ravel()
    bottom = stack.layers[0]
    g_bot = cell_area / (stack.r_bottom_map + bottom.thickness / (2.0 * bottom.k_vertical))
    idx_bot = layer_base[0] + cell_idx.ravel()
    boundary[idx_bot] += np.asarray(g_bot, dtype=float).ravel()
    diag += boundary

    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)

    G = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsc()

    capacitance = np.empty(n)
    for li, layer in enumerate(stack.layers):
        vol = cell_area * layer.thickness
        capacitance[layer_base[li] : layer_base[li] + n_per_layer] = (
            layer.capacity * vol
        ).ravel()

    return ThermalNetwork(stack=stack, conductance=G, capacitance=capacitance, boundary=boundary)

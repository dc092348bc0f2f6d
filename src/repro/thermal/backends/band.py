"""The band-Cholesky backend — the one direct factorization.

The conductance system (and the transient step matrix) is SPD with a
7-point stencil on a layer-major ``(layers, ny, nx)`` box.  Renumbered
so that the longer lateral axis varies slowest and the layer fastest,
every coupling lies within ``layers * min(ny, nx)`` of the diagonal
(320 at 10x32x32), and LAPACK's band Cholesky factors it exactly in
that band: ``dpbtrf`` through :func:`scipy.linalg.cholesky_banded`,
``dpbtrs`` through :func:`scipy.linalg.cho_solve_banded`.  The factor
needs ``FactorHints.grid_shape`` to renumber the nodes.

``dpbtrs`` substitutes one right-hand side at a time, so a column's
solution does not depend on the other columns of its batch: a batched
solve equals a loop of one-column solves bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .base import FactorHints, Factorization, FactorizationBackend

__all__ = ["BandCholeskyBackend"]


def _band_order(grid_shape) -> tuple:
    """``(order, bandwidth)``: ``order[p]`` is the layer-major node
    numbered ``p`` in the band numbering (longer lateral axis slowest,
    layer fastest), and ``bandwidth`` the half-bandwidth it gives."""
    nl, ny, nx = (int(v) for v in grid_shape)
    nodes = np.arange(nl * ny * nx).reshape(nl, ny, nx)
    axes = (1, 2, 0) if ny >= nx else (2, 1, 0)
    return nodes.transpose(axes).ravel(), nl * min(ny, nx)


class BandCholeskyFactorization(Factorization):
    """The band Cholesky factor of one SPD system in the band numbering."""

    supports_woodbury_base = True

    def __init__(self, matrix: sp.spmatrix, grid_shape) -> None:
        n = matrix.shape[0]
        order, bandwidth = _band_order(grid_shape)
        if order.size != n:
            raise ValueError(f"grid_shape {grid_shape} does not match {n} nodes")
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        coo = matrix.tocoo()
        rows, cols = position[coo.row], position[coo.col]
        lower = rows >= cols
        # LAPACK lower band storage, column-major so the factor is
        # computed in place: entry (i, j) of the band at [i - j, j]
        band = np.zeros((bandwidth + 1, n), order="F")
        band[rows[lower] - cols[lower], cols[lower]] = coo.data[lower]
        self._order = order
        self._factor = scipy.linalg.cholesky_banded(
            band, overwrite_ab=True, lower=True, check_finite=False
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        B = np.asarray(b, dtype=np.float64)
        columns = B.reshape(B.shape[0], -1)
        # the one renumbered copy, (k, N) C-ordered: its transpose is the
        # column-major block dpbtrs substitutes in place
        block = columns.T[:, self._order]
        X = np.empty_like(columns)
        X[self._order] = scipy.linalg.cho_solve_banded(
            (self._factor, True), block.T, overwrite_b=True, check_finite=False
        )
        return X.reshape(B.shape)


class BandCholeskyBackend(FactorizationBackend):
    """The direct backend: every system the automatic rule does not hand
    to spectral (needs grid-shape hints)."""

    name = "band"

    def factor(
        self,
        matrix: sp.spmatrix,
        *,
        hints: Optional[FactorHints] = None,
    ) -> Factorization:
        if hints is None or hints.grid_shape is None:
            raise ValueError(
                "band needs FactorHints.grid_shape (layer-major (layers, ny, nx) nodes)"
            )
        return BandCholeskyFactorization(matrix, hints.grid_shape)

"""The band-Cholesky backend — the one direct factorization.

The conductance system (and the transient step matrix) is SPD with a
7-point stencil on a layer-major ``(layers, ny, nx)`` box.  Renumbered
so that the longer lateral axis varies slowest and the layer fastest,
every coupling lies within ``layers * min(ny, nx)`` of the diagonal
(320 at 10x32x32), and LAPACK's band Cholesky factors it exactly in
that band: ``dpbtrf`` through :func:`scipy.linalg.cholesky_banded`,
``dpbtrs`` through :func:`scipy.linalg.cho_solve_banded`.  The factor
needs ``FactorHints.grid_shape`` to renumber the nodes.

Two substitution kernels share the factor.  ``solve`` runs ``dpbtrs``,
one column at a time through ``dtbsv``: the cheapest kernel for one
vector, which the transient recurrences step with.  ``solve_block``
substitutes in BLAS-3 tiles.  With half-bandwidth ``w``, factor entry
``(i, j)`` sits at flat offset ``i + j*w`` of the column-major band
array, so the ``w x w`` tile at block ``(r, c)`` is a zero-copy,
column-major view with leading dimension ``w``.  As ``n = w * max(ny,
nx)`` the tiles leave no ragged edge, and ``L`` is block lower
bidiagonal: diagonal tiles are lower-triangular, sub-diagonal tiles
upper-triangular, and ``dtrsm``/``dtrmm`` told the matching triangle
never read the out-of-band entries the views alias.  The forward pass is
``B_i -= L[i, i-1] B_{i-1}``, ``B_i = L[i, i]^-1 B_i``; the backward
pass the same with transposed tiles.  The tiles stream the factor twice
per block, ``dpbtrs`` twice per column: at 10x32x32 and one BLAS thread
41 columns take about half of ``dpbtrs``'s time, one column 3-4x.

Each kernel solves a column without reference to the other columns of
its batch: a ``solve`` block equals a loop of one-column ``solve``
calls bit for bit, and ``solve_block`` gives a column the same bits at
every block width (OpenBLAS 0.3.31; ``tests/test_backends.py`` pins
it).  The two kernels differ by a few ulps.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import dtrmm, dtrsm

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
        # the tiles of solve_block cover the matrix with no ragged edge
        assert n % bandwidth == 0
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
        # the factor's column-major storage: entry (i, j) at i + j * bandwidth
        self._flat = self._factor.reshape(-1, order="F")
        self._width = bandwidth

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

    def _tile(self, r: int, c: int) -> np.ndarray:
        """The factor's ``w x w`` tile at block ``(r, c)``, a column-major
        view (only its in-band triangle holds factor entries)."""
        w = self._width
        offset = r * w + c * w * w
        return self._flat[offset : offset + w * w].reshape((w, w), order="F")

    def solve_block(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for one ``(N,)`` vector or an ``(N, k)``
        block by tiled BLAS-3 substitution (see the module doc)."""
        B = np.asarray(b, dtype=np.float64)
        columns = B.reshape(B.shape[0], -1)
        n, k = columns.shape
        w = self._width
        blocks = n // w
        rows = self._order.reshape(blocks, w)
        # tiles[i] is block row i, k x w C-ordered: its transpose is the
        # column-major w x k operand trsm substitutes in place
        tiles = np.ascontiguousarray(columns.T[:, rows].transpose(1, 0, 2))
        # sub-diagonal tiles are upper-triangular (dtrmm's default triangle)
        for i in range(blocks):
            if i:
                tiles[i] -= dtrmm(1.0, self._tile(i, i - 1), tiles[i - 1].T).T
            dtrsm(1.0, self._tile(i, i), tiles[i].T, lower=1, overwrite_b=1)
        for i in range(blocks - 1, -1, -1):
            if i < blocks - 1:
                tiles[i] -= dtrmm(1.0, self._tile(i + 1, i), tiles[i + 1].T, trans_a=1).T
            dtrsm(1.0, self._tile(i, i), tiles[i].T, lower=1, trans_a=1, overwrite_b=1)
        X = np.empty_like(columns)
        X[rows] = tiles.transpose(0, 2, 1)
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

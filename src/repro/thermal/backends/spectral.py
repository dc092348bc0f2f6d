"""Spectrally preconditioned CG: the iterative backend.

The conductance matrix is a 7-point stencil on a layer-major
``(layers, ny, nx)`` box.  With each layer's x, y and z couplings and
its row sums (the boundary plus any ``C/dt``) replaced by their means,
it becomes a laterally uniform stack, which the in-plane DCT-II modes
separate into one ``layers x layers`` tridiagonal system per mode.
:class:`HomogenizedStack` builds that stack from the matrix and
``FactorHints.grid_shape`` alone, and its exact solve (two basis changes
and a Thomas sweep along z) preconditions a CG on the real system, one
column at a time, to :data:`SPECTRAL_TOLERANCE`.  On a stack without
TSVs the homogenized stack is the system itself: PCG stops after 2
iterations, and the fast thermal model holds a :class:`HomogenizedStack`
alone and calls its exact solve with no CG around it.
The factorization is approximate, so it is no Woodbury base.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...core.faults import warn_degraded
from .base import FactorHints, Factorization, FactorizationBackend

__all__ = ["SPECTRAL_TOLERANCE", "HomogenizedStack", "SpectralBackend", "SpectralFactorization"]

#: relative-residual target of every PCG column; at 1e-10, 2.5D flow
#: records drifted up to 8e-9 from superlu's
SPECTRAL_TOLERANCE = 1e-12

#: iteration cap of every PCG column; a column that stops here is a
#: counted ``spectral.no_convergence`` degradation
_PCG_MAXITER = 500


def _dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis of an ``n``-cell chain, one mode per column.

    Column ``k`` is the ``k``-th eigenvector of the chain's Laplacian
    with adiabatic (Neumann) ends; its eigenvalue per unit conductance
    is ``4 sin^2(pi k / 2n)`` (:func:`_chain_eigenvalues`).
    """
    cells = np.arange(n) + 0.5
    basis = np.sqrt(2.0 / n) * np.cos(np.pi / n * np.outer(cells, np.arange(n)))
    basis[:, 0] = np.sqrt(1.0 / n)
    return basis


def _chain_eigenvalues(n: int) -> np.ndarray:
    return 4.0 * np.sin(np.pi / (2.0 * n) * np.arange(n)) ** 2


class HomogenizedStack:
    """The laterally uniform stack of one assembled system, and its exact
    solve: the PCG's preconditioner, and on a stack without TSVs the
    system's own direct solve.

    It keeps the two DCT bases and every mode's Thomas coefficients,
    not the matrix they came from.
    """

    def __init__(self, matrix: sp.spmatrix, grid_shape) -> None:
        nl, ny, nx = self.grid_shape = tuple(int(v) for v in grid_shape)
        n = nl * ny * nx
        if n != matrix.shape[0]:
            raise ValueError(f"grid_shape {grid_shape} does not match {matrix.shape[0]} nodes")

        def mean_coupling(offset: int, pairs) -> np.ndarray:
            # a diagonal padded to the box holds each pair at its lower node
            g = np.zeros(n)
            g[: n - offset] = -matrix.diagonal(k=offset)
            g = g.reshape(nl, ny, nx)[pairs]
            return g.sum(axis=(1, 2)) / max(g[0].size if len(g) else 0, 1)

        g_x = mean_coupling(1, np.s_[:, :, :-1])
        g_y = mean_coupling(nx, np.s_[:, :-1, :])
        g_z = mean_coupling(ny * nx, np.s_[:-1])
        row_sum = np.asarray(matrix.sum(axis=1)).reshape(nl, ny * nx).mean(axis=1)
        # diag[l, ky, kx]: mode (ky, kx) of layer l's homogenized diagonal
        diag = (
            g_y[:, None, None] * _chain_eigenvalues(ny)[:, None]
            + g_x[:, None, None] * _chain_eigenvalues(nx)
            + np.maximum(row_sum, 0.0)[:, None, None]
        )
        diag[:-1] += g_z[:, None, None]
        diag[1:] += g_z[:, None, None]
        # Thomas factorization of every mode's tridiagonal at once; the
        # off-diagonal of interface l is -g_z[l]
        self._basis_y, self._basis_x = _dct_basis(ny), _dct_basis(nx)
        self._upper = -g_z
        self._cp = np.empty((nl - 1, ny, nx))
        self._denom = diag
        for li in range(nl - 1):
            self._cp[li] = self._upper[li] / diag[li]
            diag[li + 1] -= self._upper[li] * self._cp[li]

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The homogenized stack's exact solve of one ``(N,)`` vector."""
        nl, ny, nx = self.grid_shape
        modes = (self._basis_y.T @ r.reshape(nl, ny, nx)).reshape(-1, nx) @ self._basis_x
        modes = modes.reshape(nl, ny, nx)
        modes[0] /= self._denom[0]
        for li in range(1, nl):
            modes[li] -= self._upper[li - 1] * modes[li - 1]
            modes[li] /= self._denom[li]
        for li in range(nl - 2, -1, -1):
            modes[li] -= self._cp[li] * modes[li + 1]
        return ((self._basis_y @ modes).reshape(-1, nx) @ self._basis_x.T).ravel()


class SpectralFactorization(Factorization):
    """Homogenized-stack-preconditioned CG for one assembled system."""

    supports_woodbury_base = False

    def __init__(self, matrix: sp.spmatrix, grid_shape) -> None:
        #: most PCG iterations any column of the last solve took; under
        #: concurrent solves on one factorization, of whichever ended last
        self.last_iterations = 0
        # assemble's CSC is used as is: its matvec costs what CSR's does
        self._matrix = matrix.tocsc()
        self.homogenized = HomogenizedStack(self._matrix, grid_shape)

    def _pcg(self, b: np.ndarray):
        """PCG from a zero start: ``(x, iterations, relative residual)``."""
        x = np.zeros_like(b)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return x, 0, 0.0
        r = b.copy()
        p = z = self.homogenized.solve(r)
        rz = r @ z
        for iteration in range(1, _PCG_MAXITER + 1):
            ap = self._matrix @ p
            alpha = rz / (p @ ap)
            x += alpha * p
            r -= alpha * ap
            residual = np.linalg.norm(r) / bnorm
            if residual <= SPECTRAL_TOLERANCE:
                break
            z = self.homogenized.solve(r)
            rz, rz_old = r @ z, rz
            p *= rz / rz_old
            p += z
        return x, iteration, residual

    def solve(self, b: np.ndarray) -> np.ndarray:
        B = np.asarray(b, dtype=np.float64)
        columns = B.reshape(B.shape[0], -1)
        X = np.empty_like(columns)
        most, worst = 0, 0.0
        for j in range(columns.shape[1]):
            X[:, j], iterations, residual = self._pcg(np.ascontiguousarray(columns[:, j]))
            most = max(most, iterations)
            worst = max(worst, residual)
        self.last_iterations = most
        if worst > SPECTRAL_TOLERANCE:
            warn_degraded(
                "spectral.no_convergence",
                f"spectral PCG stopped at {_PCG_MAXITER} iterations, "
                f"{worst / SPECTRAL_TOLERANCE:.1f}x above the {SPECTRAL_TOLERANCE:.0e} "
                "residual target; returning the last iterate",
            )
        return X.reshape(B.shape)


class SpectralBackend(FactorizationBackend):
    """Iterative spectral-PCG backend (needs grid-shape hints)."""

    name = "spectral"

    def factor(self, matrix: sp.spmatrix, *, hints: FactorHints | None = None) -> Factorization:
        if hints is None or hints.grid_shape is None:
            raise ValueError(
                "spectral needs FactorHints.grid_shape (layer-major (layers, ny, nx) nodes)"
            )
        return SpectralFactorization(matrix, hints.grid_shape)

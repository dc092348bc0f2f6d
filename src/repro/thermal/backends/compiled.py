"""Compiled batched triangular solves over persisted CSR factors.

Fresh factorizations are the superlu backend's symmetric-mode ones
(:data:`~repro.thermal.backends.superlu.SYMMETRIC_SPLU_KWARGS`); the
measured win over the superlu backend is on *persisted* factors, picked
by what the host offers: persisted factors rebuild their solves through batched
multi-RHS forward/back-substitution kernels — numba-jitted CSR sweeps
(column-parallel) when numba is importable, otherwise the
"wrapped-native" trick: re-wrapping each stored triangular factor in a
NATURAL-ordered, non-pivoting ``splu`` whose factorization is a
zero-fill copy, so every solve runs SuperLU's compiled substitution
instead of ``spsolve_triangular``'s interpreted loop (measured 8.3x
faster per RHS).  ``REPRO_COMPILED_KERNEL`` (``auto`` / ``numba`` /
``wrapped``) pins the choice.

Factorizations here are always reconstructable, so this backend persists
for free and also *adopts* v1/superlu ``lu`` payloads — a disk cache
written by the superlu backend speeds up the moment the backend switches.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ...core.faults import fault_fires, warn_degraded
from . import persistence
from .base import (
    BackendUnavailable,
    FactorHints,
    Factorization,
    FactorizationBackend,
)
from .superlu import SYMMETRIC_SPLU_KWARGS

__all__ = [
    "CompiledNativeFactorization",
    "CompiledPersistedFactorization",
    "CompiledTriangularBackend",
    "numba_available",
]

_NUMBA_CACHE: dict = {}


def numba_available() -> bool:
    """Whether the numba JIT kernels can be used in this process."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def _numba_kernels():
    """(forward, backward) njit CSR substitution kernels, compiled once.

    Both operate in place on a Fortran-ordered ``(N, k)`` block and
    parallelize over right-hand-side columns — each column's sweep is
    sequential (a triangular solve is), but columns are independent.
    The strictly-triangular part and the diagonal are passed separately
    so one kernel pair serves unit-diagonal LU factors and non-unit
    Cholesky factors alike.
    """
    if "kernels" in _NUMBA_CACHE:
        return _NUMBA_CACHE["kernels"]
    import numba

    @numba.njit(parallel=True, cache=False)
    def forward(indptr, indices, data, diag, B):  # pragma: no cover - needs numba
        n = diag.size
        for j in numba.prange(B.shape[1]):
            for i in range(n):
                s = B[i, j]
                for p in range(indptr[i], indptr[i + 1]):
                    s -= data[p] * B[indices[p], j]
                B[i, j] = s / diag[i]

    @numba.njit(parallel=True, cache=False)
    def backward(indptr, indices, data, diag, B):  # pragma: no cover - needs numba
        n = diag.size
        for j in numba.prange(B.shape[1]):
            for i in range(n - 1, -1, -1):
                s = B[i, j]
                for p in range(indptr[i], indptr[i + 1]):
                    s -= data[p] * B[indices[p], j]
                B[i, j] = s / diag[i]

    _NUMBA_CACHE["kernels"] = (forward, backward)
    return _NUMBA_CACHE["kernels"]


def _strict_and_diag(matrix: sp.spmatrix, unit_diagonal: bool):
    """(strictly-triangular CSR, diagonal vector) of a triangular factor."""
    m = matrix.tocsr()
    diag = np.ones(m.shape[0]) if unit_diagonal else m.diagonal().copy()
    strict = sp.csr_matrix(m - sp.diags(m.diagonal()))
    strict.sort_indices()
    return strict, diag


def pick_kernel_name() -> str:
    """Which substitution kernel persisted factors will use.

    ``REPRO_COMPILED_KERNEL=numba|wrapped`` forces one; ``auto`` (the
    default) takes numba when importable.  Forcing numba on a host
    without it degrades (counted + warned) to the wrapped kernel rather
    than failing the solve.
    """
    choice = os.environ.get("REPRO_COMPILED_KERNEL", "auto").strip().lower()
    if choice not in ("auto", "numba", "wrapped"):
        raise ValueError(
            f"REPRO_COMPILED_KERNEL must be auto|numba|wrapped, got {choice!r}"
        )
    have_numba = numba_available()
    if choice == "numba" and not have_numba:
        warn_degraded(
            "backend.compiled.kernel_fallback",
            "REPRO_COMPILED_KERNEL=numba but numba is not importable; "
            "using the wrapped-native kernel",
        )
        return "wrapped"
    if choice == "auto":
        return "numba" if have_numba else "wrapped"
    return choice


class _NumbaTriangularPair:
    """Batched substitution through the njit CSR kernels."""

    name = "numba"

    def __init__(self, L: sp.spmatrix, U: sp.spmatrix, unit_lower: bool) -> None:
        self._lower = _strict_and_diag(L, unit_diagonal=unit_lower)
        self._upper = _strict_and_diag(U, unit_diagonal=False)

    def _run(self, kernel_idx: int, part, b: np.ndarray) -> np.ndarray:
        kernel = _numba_kernels()[kernel_idx]
        strict, diag = part
        block = b[:, None] if b.ndim == 1 else b
        out = np.array(block, dtype=np.float64, order="F", copy=True)
        kernel(strict.indptr, strict.indices, strict.data, diag, out)
        return out[:, 0] if b.ndim == 1 else out

    def lower(self, b: np.ndarray) -> np.ndarray:
        return self._run(0, self._lower, b)

    def upper(self, b: np.ndarray) -> np.ndarray:
        return self._run(1, self._upper, b)


class _WrappedNativeTriangularPair:
    """Each stored triangular factor re-wrapped in a NATURAL-ordered,
    non-pivoting ``splu``: factorizing an already-triangular matrix that
    way is a zero-fill copy, and its ``solve`` is SuperLU's compiled
    substitution loop."""

    name = "wrapped"

    def __init__(self, L: sp.spmatrix, U: sp.spmatrix, unit_lower: bool) -> None:
        wrap_kwargs = dict(
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options=dict(Equil=False),
        )
        self._lu_lower = spla.splu(L.tocsc(), **wrap_kwargs)
        self._lu_upper = spla.splu(U.tocsc(), **wrap_kwargs)

    def lower(self, b: np.ndarray) -> np.ndarray:
        return self._lu_lower.solve(np.asarray(b, dtype=np.float64))

    def upper(self, b: np.ndarray) -> np.ndarray:
        return self._lu_upper.solve(np.asarray(b, dtype=np.float64))


_KERNEL_PAIRS = {
    "numba": _NumbaTriangularPair,
    "wrapped": _WrappedNativeTriangularPair,
}


class CompiledPersistedFactorization(Factorization):
    """Persisted triangular pair solved through batched compiled kernels."""

    backend_name = "compiled_triangular"
    is_persisted = True
    supports_woodbury_base = True

    def __init__(
        self,
        L: sp.spmatrix,
        U: sp.spmatrix,
        perm_r: np.ndarray,
        perm_c: np.ndarray,
    ) -> None:
        self._L = L.tocsc()
        self._U = U.tocsc()
        self._perm_r = np.asarray(perm_r, dtype=np.intp)
        self._perm_c = np.asarray(perm_c, dtype=np.intp)
        self.kernel_name = pick_kernel_name()
        self._pair = None  # built lazily: JIT compile / re-wrap on first solve

    def _kernel_pair(self):
        if self._pair is None:
            self._pair = _KERNEL_PAIRS[self.kernel_name](
                self._L, self._U, unit_lower=True
            )
        return self._pair

    def _forward(self, b: np.ndarray) -> np.ndarray:
        rb = np.empty_like(b, dtype=np.float64)
        rb[self._perm_r] = b
        return self._kernel_pair().lower(rb)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._kernel_pair().upper(self._forward(b))
        return np.ascontiguousarray(x[self._perm_c])

    def solve_triangular_parts(
        self, b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        y = self._forward(b)
        x = self._kernel_pair().upper(y)
        return y, np.ascontiguousarray(x[self._perm_c])


class CompiledNativeFactorization(Factorization):
    """Fresh symmetric-mode SuperLU factorization (always persistable)."""

    backend_name = "compiled_triangular"
    is_persisted = False
    supports_woodbury_base = True

    def __init__(self, lu) -> None:
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b)

    def solve_triangular_parts(
        self, b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        rebuilt = CompiledPersistedFactorization(
            self._lu.L, self._lu.U, self._lu.perm_r, self._lu.perm_c
        )
        return rebuilt.solve_triangular_parts(b)


class CompiledTriangularBackend(FactorizationBackend):
    """SPD-aware direct backend with compiled persisted-solve kernels."""

    name = "compiled_triangular"
    supports_persistence = True

    def available(self) -> bool:
        # runs everywhere (the wrapped kernel needs only scipy); the
        # fault site lets chaos tests force the registry fallback path
        return not fault_fires(f"backend.{self.name}.unavailable")

    def unavailable_reason(self) -> Optional[str]:
        if not self.available():
            return "injected backend.compiled_triangular.unavailable fault"
        return None

    def factor(
        self,
        matrix: sp.spmatrix,
        *,
        reconstructable: bool = False,
        hints: Optional[FactorHints] = None,
    ) -> Factorization:
        lu = spla.splu(matrix.tocsc(), **SYMMETRIC_SPLU_KWARGS)
        return CompiledNativeFactorization(lu)

    def payload_from(self, fact: Factorization) -> Dict[str, np.ndarray]:
        if isinstance(fact, CompiledPersistedFactorization):
            L, U = fact._L, fact._U
            perm_r, perm_c = fact._perm_r, fact._perm_c
        elif isinstance(fact, CompiledNativeFactorization):
            lu = fact._lu
            L, U, perm_r, perm_c = lu.L, lu.U, lu.perm_r, lu.perm_c
        else:
            raise BackendUnavailable(
                f"cannot persist a {type(fact).__name__} through {self.name}"
            )
        payload: Dict[str, np.ndarray] = {
            "format": np.int64(persistence.FORMAT_VERSION),
            "backend": np.array(self.name),
            "kind": np.array(persistence.KIND_LU),
            "perm_r": np.asarray(perm_r),
            "perm_c": np.asarray(perm_c),
            "shape": np.asarray(L.shape, dtype=np.int64),
        }
        payload.update(persistence.matrix_arrays("L", L))
        payload.update(persistence.matrix_arrays("U", U))
        return payload

    def accepts_payload(self, payload: Dict[str, np.ndarray]) -> bool:
        # adopts superlu-written (and v1 legacy) LU payloads too
        return persistence.payload_kind(payload) == persistence.KIND_LU

    def factorization_from_payload(
        self, payload: Dict[str, np.ndarray]
    ) -> Factorization:
        mats = persistence.triangular_matrices(payload)
        return CompiledPersistedFactorization(
            mats["L"], mats["U"], payload["perm_r"], payload["perm_c"]
        )

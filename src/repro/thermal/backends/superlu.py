"""The SuperLU backend — the one direct factorization.

* fresh factorizations call ``scipy.sparse.linalg.splu`` in symmetric
  mode (:data:`SYMMETRIC_SPLU_KWARGS`): the conductance system is SPD,
  so an ``MMD_AT_PLUS_A`` ordering with relaxed diagonal pivoting gives
  ~2.5x sparser factors than equilibrated COLAMD — faster to factorize
  and faster per right-hand side, while staying a *direct* solve.
  Equilibration is off, so ``A = Pr^T L U Pc^T`` holds exactly and every
  factorization can be persisted and rebuilt in another process;
* persisted factorizations solve through the "wrapped-native" kernel:
  each stored triangular factor is re-wrapped in a NATURAL-ordered,
  non-pivoting ``splu`` whose factorization is a zero-fill copy, so
  every solve runs SuperLU's compiled substitution instead of
  ``spsolve_triangular``'s interpreted loop (~4-5x faster per RHS at
  64x64 over the same stored factors).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import persistence
from .base import (
    BackendUnavailable,
    FactorHints,
    Factorization,
    FactorizationBackend,
)

__all__ = [
    "SYMMETRIC_SPLU_KWARGS",
    "NativeSuperLUFactorization",
    "PersistedSuperLUFactorization",
    "SuperLUBackend",
]

#: symmetric-mode ``splu`` options for the SPD conductance system: the
#: one fresh factorization the direct backend computes
SYMMETRIC_SPLU_KWARGS = dict(
    permc_spec="MMD_AT_PLUS_A",
    options=dict(SymmetricMode=True, DiagPivotThresh=0.001, Equil=False),
)

#: ``splu`` options that factor an already-triangular matrix as a
#: zero-fill copy of itself (no reordering, no pivoting)
_WRAP_SPLU_KWARGS = dict(
    permc_spec="NATURAL",
    diag_pivot_thresh=0.0,
    options=dict(Equil=False),
)


class NativeSuperLUFactorization(Factorization):
    """An in-process ``splu`` handle (the historical ``solver._lu``)."""

    backend_name = "superlu"
    is_persisted = False
    supports_woodbury_base = True

    def __init__(self, lu) -> None:
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b)


class PersistedSuperLUFactorization(Factorization):
    """A solve operator rebuilt from persisted SuperLU factors.

    ``splu`` objects cannot cross process boundaries, but their ``L``,
    ``U`` and permutations can (factorized with equilibration disabled,
    so ``A = Pr^T L U Pc^T`` holds exactly).  A solve is then a forward
    and a backward substitution through the re-wrapped factors; it skips
    the dominant factorization cost entirely.
    """

    backend_name = "superlu"
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
        self._lower = spla.splu(self._L, **_WRAP_SPLU_KWARGS)
        self._upper = spla.splu(self._U, **_WRAP_SPLU_KWARGS)

    def solve(self, b: np.ndarray) -> np.ndarray:
        rb = np.empty_like(b, dtype=np.float64)
        rb[self._perm_r] = b
        x = self._upper.solve(self._lower.solve(rb))
        return np.ascontiguousarray(x[self._perm_c])


class SuperLUBackend(FactorizationBackend):
    """Default direct backend; always available, never degraded to."""

    name = "superlu"
    supports_persistence = True

    def factor(
        self,
        matrix: sp.spmatrix,
        *,
        reconstructable: bool = False,
        hints: Optional[FactorHints] = None,
    ) -> Factorization:
        # symmetric mode never equilibrates, so every factorization is
        # reconstructable whatever the caller asked for
        lu = spla.splu(matrix.tocsc(), **SYMMETRIC_SPLU_KWARGS)
        return NativeSuperLUFactorization(lu)

    def payload_from(self, fact: Factorization) -> Dict[str, np.ndarray]:
        if isinstance(fact, PersistedSuperLUFactorization):
            L, U = fact._L, fact._U
            perm_r, perm_c = fact._perm_r, fact._perm_c
        elif isinstance(fact, NativeSuperLUFactorization):
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

    def factorization_from_payload(
        self, payload: Dict[str, np.ndarray]
    ) -> Factorization:
        mats = persistence.triangular_matrices(payload)
        return PersistedSuperLUFactorization(
            mats["L"], mats["U"], payload["perm_r"], payload["perm_c"]
        )

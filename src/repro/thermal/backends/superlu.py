"""The SuperLU backend — the one direct factorization.

Factorizations call ``scipy.sparse.linalg.splu`` in symmetric mode
(:data:`SYMMETRIC_SPLU_KWARGS`): the conductance system is SPD, so an
``MMD_AT_PLUS_A`` ordering with relaxed diagonal pivoting gives ~2.5x
sparser factors than equilibrated COLAMD — faster to factorize and
faster per right-hand side, while staying a *direct* solve.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .base import FactorHints, Factorization, FactorizationBackend

__all__ = [
    "SYMMETRIC_SPLU_KWARGS",
    "NativeSuperLUFactorization",
    "SuperLUBackend",
]

#: symmetric-mode ``splu`` options for the SPD conductance system: the
#: one factorization the direct backend computes
SYMMETRIC_SPLU_KWARGS = dict(
    permc_spec="MMD_AT_PLUS_A",
    options=dict(SymmetricMode=True, DiagPivotThresh=0.001, Equil=False),
)


class NativeSuperLUFactorization(Factorization):
    """An in-process ``splu`` handle."""

    supports_woodbury_base = True

    def __init__(self, lu) -> None:
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b)


class SuperLUBackend(FactorizationBackend):
    """The direct backend: every system the automatic rule does not
    hand to spectral."""

    name = "superlu"

    def factor(
        self,
        matrix: sp.spmatrix,
        *,
        hints: Optional[FactorHints] = None,
    ) -> Factorization:
        lu = spla.splu(matrix.tocsc(), **SYMMETRIC_SPLU_KWARGS)
        return NativeSuperLUFactorization(lu)

"""The historical direct backend: SuperLU.

The band-Cholesky backend replaced it in ``src/``.  This one keeps the
equilibrated-COLAMD ``splu`` factorization the package solved with
before either, as an independent direct oracle: it shares no ordering,
factorization or substitution code with the band backend, and it needs
no grid-shape hints.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from repro.thermal.backends.base import Factorization, FactorizationBackend


class SuperLUFactorization(Factorization):
    """An in-process ``splu`` handle."""

    def __init__(self, lu) -> None:
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b)


class SuperLUBackend(FactorizationBackend):
    """The SuperLU oracle backend; tests hand in an instance."""

    name = "superlu"

    def factor(self, matrix, *, hints=None) -> Factorization:
        return SuperLUFactorization(spla.splu(matrix.tocsc()))

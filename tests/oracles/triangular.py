"""Reference solve over persisted SuperLU factors.

The historical persisted path: two ``spsolve_triangular`` passes over
the stored ``L``/``U`` pair.  The superlu backend's persisted
factorization (re-wrapped triangular factors) must reproduce it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import scipy.sparse.linalg as spla

from repro.thermal.backends.persistence import triangular_matrices


class SpsolveTriangularSolve:
    """``A x = b`` through ``A = Pr^T L U Pc^T`` with interpreted
    triangular substitutions, built from a persisted payload."""

    def __init__(self, payload: Dict[str, np.ndarray]) -> None:
        mats = triangular_matrices(payload)
        self._L = mats["L"].tocsr()
        self._U = mats["U"].tocsr()
        self._perm_r = np.asarray(payload["perm_r"], dtype=np.intp)
        self._perm_c = np.asarray(payload["perm_c"], dtype=np.intp)

    def solve(self, b: np.ndarray) -> np.ndarray:
        rb = np.empty_like(b, dtype=np.float64)
        rb[self._perm_r] = b
        y = spla.spsolve_triangular(
            self._L, rb, lower=True, unit_diagonal=True, overwrite_b=True
        )
        x = spla.spsolve_triangular(self._U, y, lower=False, overwrite_b=True)
        return x[self._perm_c]

    solve_many = solve

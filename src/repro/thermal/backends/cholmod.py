"""CHOLMOD Cholesky backend (scikit-sparse), with a clean degrade path.

The conductance system is SPD, so a supernodal Cholesky factorization
(CHOLMOD via ``sksparse.cholmod``) is the right direct method: roughly
half the arithmetic and fill of an LU, and a single factor ``L`` with
``P G Pᵀ = L Lᵀ`` to persist instead of an L/U pair.  scikit-sparse is
an *optional* dependency — :meth:`CholmodBackend.available` gates on the
import (and on the ``backend.cholmod.unavailable`` chaos fault site),
and the registry falls back to SuperLU with a counted degradation when
cholmod is requested but absent.

Persisted cholmod factors rebuild through the same batched substitution
kernels as the compiled backend (``L`` forward, ``Lᵀ`` backward, one
symmetric permutation).  Because CHOLMOD cannot run in the reference
container, every persisted load is additionally self-checked against the
live conductance matrix by the cache (see ``needs_self_check``) — a
wrong permutation convention surfaces as a counted degradation plus a
fresh factorization, never as silently wrong temperatures.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ...core.faults import fault_fires
from . import persistence
from .base import (
    BackendUnavailable,
    FactorHints,
    Factorization,
    FactorizationBackend,
)
from .compiled import _KERNEL_PAIRS, pick_kernel_name

__all__ = [
    "CholmodBackend",
    "CholmodFactorization",
    "PersistedCholeskyFactorization",
    "sksparse_available",
]


def sksparse_available() -> bool:
    """Whether ``sksparse.cholmod`` is importable in this process."""
    try:
        from sksparse import cholmod  # noqa: F401
    except ImportError:
        return False
    return True


class CholmodFactorization(Factorization):
    """A live CHOLMOD factor (``sksparse.cholmod.Factor``)."""

    backend_name = "cholmod"
    is_persisted = False
    supports_woodbury_base = True

    def __init__(self, factor) -> None:
        self._factor = factor

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._factor(np.asarray(b, dtype=np.float64))

    def solve_triangular_parts(
        self, b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        f = self._factor
        b = np.asarray(b, dtype=np.float64)
        y = f.solve_L(f.apply_P(b), use_LDLt_decomposition=False)
        return y, self.solve(b)


class PersistedCholeskyFactorization(Factorization):
    """``P G Pᵀ = L Lᵀ`` rebuilt from a persisted ``L`` and permutation.

    Solves run ``x[p] = L⁻ᵀ L⁻¹ b[p]`` through the compiled backend's
    batched substitution kernels (numba or wrapped-native).
    """

    backend_name = "cholmod"
    is_persisted = True
    supports_woodbury_base = True
    #: the rebuilt factor solves through generic triangular kernels, not
    #: CHOLMOD; cost tracks the compiled persisted path, and loads are
    #: verified against the live matrix before first use
    needs_self_check = True

    def __init__(self, L: sp.spmatrix, perm: np.ndarray) -> None:
        self._L = L.tocsc()
        self._perm = np.asarray(perm, dtype=np.intp)
        self.kernel_name = pick_kernel_name()
        self._pair = None

    def _kernel_pair(self):
        if self._pair is None:
            self._pair = _KERNEL_PAIRS[self.kernel_name](
                self._L, self._L.T.tocsc(), unit_lower=False
            )
        return self._pair

    def _forward(self, b: np.ndarray) -> np.ndarray:
        pb = np.asarray(b, dtype=np.float64)[self._perm]
        return self._kernel_pair().lower(pb)

    def _finish(self, y: np.ndarray) -> np.ndarray:
        z = self._kernel_pair().upper(y)
        out = np.empty_like(z)
        out[self._perm] = z
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._finish(self._forward(b))

    def solve_triangular_parts(
        self, b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        y = self._forward(b)
        return y, self._finish(y)


class CholmodBackend(FactorizationBackend):
    """Optional SPD Cholesky backend; degrades to SuperLU when absent."""

    name = "cholmod"
    supports_persistence = True

    def available(self) -> bool:
        if fault_fires(f"backend.{self.name}.unavailable"):
            return False
        return sksparse_available()

    def unavailable_reason(self) -> Optional[str]:
        if fault_fires(f"backend.{self.name}.unavailable"):
            return "injected backend.cholmod.unavailable fault"
        if not sksparse_available():
            return "sksparse.cholmod is not importable"
        return None

    def factor(
        self,
        matrix: sp.spmatrix,
        *,
        reconstructable: bool = False,
        hints: Optional[FactorHints] = None,
    ) -> Factorization:
        if not self.available():
            raise BackendUnavailable(
                f"cholmod backend unavailable: {self.unavailable_reason()}"
            )
        from sksparse.cholmod import cholesky

        return CholmodFactorization(cholesky(matrix.tocsc()))

    def payload_from(self, fact: Factorization) -> Dict[str, np.ndarray]:
        if isinstance(fact, PersistedCholeskyFactorization):
            L, perm = fact._L, fact._perm
        elif isinstance(fact, CholmodFactorization):
            L = fact._factor.L().tocsc()
            perm = fact._factor.P()
        else:
            raise BackendUnavailable(
                f"cannot persist a {type(fact).__name__} through {self.name}"
            )
        payload: Dict[str, np.ndarray] = {
            "format": np.int64(persistence.FORMAT_VERSION),
            "backend": np.array(self.name),
            "kind": np.array(persistence.KIND_CHOLESKY),
            "perm": np.asarray(perm),
            "shape": np.asarray(L.shape, dtype=np.int64),
        }
        payload.update(persistence.matrix_arrays("L", L))
        return payload

    def accepts_payload(self, payload: Dict[str, np.ndarray]) -> bool:
        return persistence.payload_kind(payload) == persistence.KIND_CHOLESKY

    def factorization_from_payload(
        self, payload: Dict[str, np.ndarray]
    ) -> Factorization:
        mats = persistence.triangular_matrices(payload)
        return PersistedCholeskyFactorization(mats["L"], payload["perm"])

"""The factorization-backend protocol.

Everything in the thermal stack that factors the conductance system
goes through a :class:`FactorizationBackend`:
``backend.factor(G) -> Factorization``, where the returned object knows
how to solve against the factored system — ``solve`` for the one-vector
recurrences, ``solve_block`` for the steady-state solves, which may be
a different kernel (the band backend's BLAS-3 tiles) — and *describes
itself*: whether it can serve as the base of a Woodbury low-rank solver.
Callers make that policy decision from the capability field instead of
sniffing concrete types.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FactorHints",
    "Factorization",
    "FactorizationBackend",
]


@dataclass(frozen=True)
class FactorHints:
    """Structural information a backend may exploit (but must not require
    unless it says so).

    ``grid_shape`` is the ``(layers, ny, nx)`` shape behind the
    layer-major node numbering of an assembled
    :class:`~repro.thermal.rc_network.ThermalNetwork` — the spectral
    backend needs it to homogenize each layer's couplings and build its
    cosine-basis preconditioner, the band backend to renumber the nodes
    into a narrow band.

    ``has_tsvs`` says whether the stack carries TSV or dummy-TSV
    density; the spectral backend then smooths its preconditioner along
    z.  The assembled network derives it from its stack
    (:meth:`~repro.thermal.rc_network.ThermalNetwork.factor_hints`).

    ``rhs_budget`` is how many right-hand sides the caller will solve
    against this one system (verification and each dummy-TSV candidate
    solve 1).  ``None`` means "unknown or many" and leaves the automatic
    rule to grid size alone; a small budget lets the rule pick the
    backend with the cheaper setup (see
    :func:`~repro.thermal.backends.resolve_backend`).
    """

    grid_shape: Optional[Tuple[int, int, int]] = None
    rhs_budget: Optional[int] = None
    has_tsvs: bool = False

    @property
    def cells_per_layer(self) -> Optional[int]:
        if self.grid_shape is None:
            return None
        return int(self.grid_shape[1]) * int(self.grid_shape[2])


class Factorization(abc.ABC):
    """One factored (or otherwise solvable) SPD system.

    ``supports_woodbury_base`` (a class attribute) says whether a
    :class:`~repro.thermal.steady_state.WoodburySolver` may ride this
    factorization (iterative backends return approximate solves whose
    residual floor compounds through the dense core, so they opt out).
    """

    supports_woodbury_base: bool = True

    @abc.abstractmethod
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for one ``(N,)`` vector or an ``(N, k)`` block."""

    def solve_block(self, b: np.ndarray) -> np.ndarray:
        """:meth:`solve` through the backend's many-column kernel.

        The steady-state solvers solve every power-map set through this
        method, so a set's solution has the same bits alone and in any
        batch; one-vector recurrences (the transient's) call
        :meth:`solve`.  A backend with one kernel inherits this default.
        """
        return self.solve(b)


class FactorizationBackend(abc.ABC):
    """Factory for :class:`Factorization` objects."""

    #: the backend's name in cache keys, records and benchmark traces
    name: str = "unknown"

    @abc.abstractmethod
    def factor(
        self,
        matrix: sp.spmatrix,
        *,
        hints: Optional[FactorHints] = None,
    ) -> Factorization:
        """Factor ``matrix`` (SPD, diagonally dominant)."""

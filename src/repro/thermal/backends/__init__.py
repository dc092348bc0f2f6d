"""Factorization backends and the size rule that picks one.

Two backends: ``superlu`` (direct symmetric-mode SuperLU) and
``spectral`` (CG preconditioned by an exact cosine-basis solve of the
homogenized stack, for one- and few-RHS solves and for grids too large
to factor directly).

:func:`resolve_backend` returns a backend instance its caller passes
unchanged (the seam tests use to substitute an oracle); otherwise it
applies the automatic rule, the only way a backend is chosen: spectral
when the grid has more than :data:`SPECTRAL_THRESHOLD` cells per layer
(direct factorization cost explodes past 64x64), or when the caller's
``FactorHints.rhs_budget`` is at or below the measured few-RHS
crossover on a grid larger than 16x16 (a spectral setup is far cheaper
than a SuperLU factorization, and a handful of PCG solves does not eat
the difference); otherwise superlu.
"""

from __future__ import annotations

from typing import Optional

from .base import FactorHints, Factorization, FactorizationBackend
from .spectral import SpectralBackend
from .superlu import SuperLUBackend

__all__ = [
    "FEW_RHS_CROSSOVER",
    "SPECTRAL_THRESHOLD",
    "FactorHints",
    "Factorization",
    "FactorizationBackend",
    "resolve_backend",
]

#: cells per layer above which the rule switches to spectral; 4096
#: (= 64x64) keeps every historical grid on the direct oracle path
SPECTRAL_THRESHOLD = 4096

#: largest ``FactorHints.rhs_budget`` for which the rule prefers a
#: spectral setup plus that many PCG solves over a fresh SuperLU
#: factorization plus back-substitutions (measured; see resolve_backend)
FEW_RHS_CROSSOVER = 4

#: at or below this many cells per layer (16x16) both a factorization and
#: a spectral setup cost milliseconds; the rule keeps the direct solve
_FEW_RHS_MIN_CELLS = 256

_SUPERLU = SuperLUBackend()
_SPECTRAL = SpectralBackend()


def _auto_backend(
    cells_per_layer: Optional[int], rhs_budget: Optional[int]
) -> FactorizationBackend:
    """The automatic rule of :func:`resolve_backend`."""
    if cells_per_layer is not None and (
        cells_per_layer > SPECTRAL_THRESHOLD
        or (
            rhs_budget is not None
            and rhs_budget <= FEW_RHS_CROSSOVER
            and cells_per_layer > _FEW_RHS_MIN_CELLS
        )
    ):
        return _SPECTRAL
    return _SUPERLU


def resolve_backend(
    backend: Optional[FactorizationBackend] = None,
    *,
    hints: Optional[FactorHints] = None,
    cells_per_layer: Optional[int] = None,
) -> FactorizationBackend:
    """The backend that will factor the next system (see module doc).

    A passed :class:`FactorizationBackend` instance is returned as-is;
    otherwise ``hints``/``cells_per_layer`` feed the automatic rule.

    The few-RHS rule rests on measured setup + 1 solve costs
    (``docs/ARCHITECTURE.md``, "Factorization backends"): a spectral
    setup is 2-20x cheaper than a SuperLU factorization past 16x16, but
    each further right-hand side costs a PCG solve, 2.5-7x a SuperLU
    back-substitution in 3D and 10-23x in 2.5D.  The break-even at 24x24
    sits near 15 RHS in 3D and 4 in 2.5D; :data:`FEW_RHS_CROSSOVER` takes
    the 2.5D end.  At 16x16 and below either costs a few tens of
    milliseconds, and the floor keeps those systems on the direct path.
    Each dummy-TSV candidate states a budget of 1 (its one nominal
    solve); a round's activity sweep states none, so only a swept TSV
    pattern is factorized.
    """
    if backend is not None:
        if not isinstance(backend, FactorizationBackend):
            raise TypeError(
                f"backend must be a FactorizationBackend instance, got {backend!r}"
            )
        return backend
    if cells_per_layer is None and hints is not None:
        cells_per_layer = hints.cells_per_layer
    return _auto_backend(cells_per_layer, hints.rhs_budget if hints is not None else None)

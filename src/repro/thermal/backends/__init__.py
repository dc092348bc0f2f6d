"""Factorization backends and the size rule that picks one.

Two backends: ``band`` (direct: LAPACK band Cholesky of the system
renumbered into a narrow band) and ``spectral`` (CG preconditioned by an
exact cosine-basis solve of the homogenized stack, smoothed along z on
stacks with TSVs, for one- and few-RHS solves and for grids too large to
factor directly).  Both need ``FactorHints.grid_shape``.

:func:`resolve_backend` returns a backend instance its caller passes
unchanged (the seam tests use to substitute an oracle); otherwise it
applies the automatic rule, the only way a backend is chosen: spectral
when the grid has more than :data:`SPECTRAL_THRESHOLD` cells per layer
(direct factorization cost explodes past 64x64), or when the caller's
``FactorHints.rhs_budget`` is at or below the measured few-RHS
crossover on a grid larger than 16x16 (a spectral setup is far cheaper
than a band factorization, and a handful of PCG solves does not eat the
difference); otherwise band.
"""

from __future__ import annotations

from typing import Optional

from .band import BandCholeskyBackend
from .base import FactorHints, Factorization, FactorizationBackend
from .spectral import SpectralBackend

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
#: spectral setup plus that many PCG solves over a fresh band
#: factorization plus back-substitutions (measured; see resolve_backend)
FEW_RHS_CROSSOVER = 4

#: at or below this many cells per layer (16x16) both a factorization and
#: a spectral setup cost milliseconds; the rule keeps the direct solve
_FEW_RHS_MIN_CELLS = 256

_BAND = BandCholeskyBackend()
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
    return _BAND


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
    setup is 20-110x cheaper than a band factorization, but each further
    right-hand side costs a PCG solve, 3-4x a ``dpbtrs`` substitution
    past 16x16 (7-9x at 16x16).  The break-even sits at 8-11 RHS in 3D
    and 3-8 in 2.5D (16x16 to 32x32); :data:`FEW_RHS_CROSSOVER` stays at
    or below every one of them.  A column of a tiled block costs about
    a third of a ``dpbtrs`` substitution, which moves the 3D break-even
    for a batch down to an estimated 6-7 RHS at 24x24-32x32, still above
    the crossover.  At 16x16 and below a band factorization
    costs under 20 ms, and the floor keeps those systems on the direct
    path.
    Each dummy-TSV candidate states a budget of 1 (its one nominal
    solve); a round's activity sweep states none, so only a swept TSV
    pattern is factorized.

    Past 32x32 the many-RHS direct path still pays: with the tiled
    substitution (:mod:`.band`), a factor plus 40 right-hand sides takes
    0.29 s at 3D 48x48, against ~0.5 s for 40 smoothed PCG solves, and
    0.69 s at 64x64 (one BLAS thread, n100 with TSVs).
    :data:`SPECTRAL_THRESHOLD` stays at 64x64; moving it would change
    records at those grids.
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

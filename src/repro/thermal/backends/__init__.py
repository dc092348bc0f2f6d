"""Factorization backends and the policy that picks one.

Two backends: ``superlu`` (direct symmetric-mode SuperLU) and
``spectral`` (CG preconditioned by an exact cosine-basis solve of the
homogenized stack, for one- and few-RHS solves and for grids too large
to factor directly).

Selection order (:func:`resolve_backend`):

1. an explicit request — the ``backend=`` argument (a name or a
   :class:`~repro.thermal.backends.base.FactorizationBackend` instance)
   or, failing that, the ``REPRO_THERMAL_BACKEND`` environment variable
   (``auto`` means "no request").  A requested backend that is
   unavailable here (an injected ``backend.<name>.unavailable`` fault)
   **degrades to superlu** with a counted ``backend.fallback.<name>``
   degradation, so the ledger says which runs took the fallback;
2. ``auto``: spectral when the grid has more than
   :data:`SPECTRAL_THRESHOLD` cells per layer (direct factorization
   cost explodes past 64x64), or when the caller's
   ``FactorHints.rhs_budget`` is at or below the measured few-RHS
   crossover on a grid larger than 16x16 (a spectral setup is far
   cheaper than a SuperLU factorization, and a handful of PCG solves
   does not eat the difference); otherwise superlu.  When spectral is
   unavailable, auto quietly takes superlu — nothing was requested, so
   nothing degraded.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from ...core.faults import warn_degraded
from .base import (
    BackendUnavailable,
    FactorHints,
    Factorization,
    FactorizationBackend,
)
from .spectral import SpectralBackend
from .superlu import SuperLUBackend

__all__ = [
    "BACKEND_NAMES",
    "FEW_RHS_CROSSOVER",
    "SPECTRAL_THRESHOLD",
    "BackendUnavailable",
    "FactorHints",
    "Factorization",
    "FactorizationBackend",
    "get_backend",
    "resolve_backend",
]

_REGISTRY = {
    backend_cls.name: backend_cls
    for backend_cls in (SuperLUBackend, SpectralBackend)
}

#: registry order = documentation order (superlu is the universal floor)
BACKEND_NAMES = tuple(_REGISTRY)

_INSTANCES: dict = {}

#: cells per layer above which ``auto`` switches to spectral; 4096
#: (= 64x64) keeps every historical grid on the direct oracle path
SPECTRAL_THRESHOLD = 4096

#: largest ``FactorHints.rhs_budget`` for which ``auto`` prefers a
#: spectral setup plus that many PCG solves over a fresh SuperLU
#: factorization plus back-substitutions (measured; see resolve_backend)
FEW_RHS_CROSSOVER = 4

#: at or below this many cells per layer (16x16) both a factorization and
#: a spectral setup cost milliseconds; ``auto`` keeps the direct solve
_FEW_RHS_MIN_CELLS = 256


def get_backend(name: str) -> FactorizationBackend:
    """The (process-wide) backend instance registered under ``name``."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown thermal backend {name!r}; choose from "
            f"{', '.join(BACKEND_NAMES)} (or 'auto')"
        ) from None
    if name not in _INSTANCES:
        _INSTANCES[name] = cls()
    return _INSTANCES[name]


def resolve_backend(
    backend: Union[FactorizationBackend, str, None] = None,
    *,
    hints: Optional[FactorHints] = None,
    cells_per_layer: Optional[int] = None,
) -> FactorizationBackend:
    """The backend that will factor the next system (see module doc).

    ``hints``/``cells_per_layer`` feed the auto-selection rules; an
    explicitly passed :class:`FactorizationBackend` instance is trusted
    as-is (the caller already decided).

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
    if isinstance(backend, FactorizationBackend):
        return backend
    name = backend if backend is not None else os.environ.get(
        "REPRO_THERMAL_BACKEND"
    )
    name = (name or "auto").strip().lower()
    if name != "auto":
        requested = get_backend(name)
        if requested.available():
            return requested
        warn_degraded(
            f"backend.fallback.{name}",
            f"thermal backend {name!r} unavailable "
            f"({requested.unavailable_reason()}); using superlu",
        )
        return get_backend("superlu")
    if cells_per_layer is None and hints is not None:
        cells_per_layer = hints.cells_per_layer
    rhs_budget = hints.rhs_budget if hints is not None else None
    if cells_per_layer is not None and (
        cells_per_layer > SPECTRAL_THRESHOLD
        or (
            rhs_budget is not None
            and rhs_budget <= FEW_RHS_CROSSOVER
            and cells_per_layer > _FEW_RHS_MIN_CELLS
        )
    ):
        spectral = get_backend("spectral")
        if spectral.available():
            return spectral
    return get_backend("superlu")

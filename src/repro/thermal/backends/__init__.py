"""Factorization backends and the policy that picks one.

Two backends: ``superlu`` (direct symmetric-mode SuperLU) and
``multigrid`` (iterative, for grids too large to factor directly).

Selection order (:func:`resolve_backend`):

1. an explicit request — the ``backend=`` argument (a name or a
   :class:`~repro.thermal.backends.base.FactorizationBackend` instance)
   or, failing that, the ``REPRO_THERMAL_BACKEND`` environment variable
   (``auto`` means "no request").  A requested backend that is
   unavailable here (an injected ``backend.<name>.unavailable`` fault)
   **degrades to superlu** with a counted ``backend.fallback.<name>``
   degradation, so the ledger says which runs took the fallback;
2. ``auto``: multigrid when the grid has more than
   :func:`multigrid_threshold` cells per layer (direct factorization
   cost explodes past 64x64), or when the caller's
   ``FactorHints.rhs_budget`` is at or below the measured few-RHS
   crossover on a grid larger than 16x16 (a multigrid setup is far
   cheaper than a SuperLU factorization, and a handful of PCG solves
   does not eat the difference); otherwise superlu.  When multigrid is
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
from .multigrid import MultigridBackend
from .superlu import SuperLUBackend

__all__ = [
    "BACKEND_NAMES",
    "FEW_RHS_CROSSOVER",
    "BackendUnavailable",
    "FactorHints",
    "Factorization",
    "FactorizationBackend",
    "get_backend",
    "multigrid_threshold",
    "resolve_backend",
]

_REGISTRY = {
    backend_cls.name: backend_cls
    for backend_cls in (SuperLUBackend, MultigridBackend)
}

#: registry order = documentation order (superlu is the universal floor)
BACKEND_NAMES = tuple(_REGISTRY)

_INSTANCES: dict = {}

#: cells per layer above which ``auto`` switches to multigrid; 4096
#: (= 64x64) keeps every historical grid on the direct oracle path
_MULTIGRID_THRESHOLD = 4096

#: largest ``FactorHints.rhs_budget`` for which ``auto`` prefers a
#: multigrid setup plus that many PCG solves over a fresh SuperLU
#: factorization plus back-substitutions (measured; see resolve_backend)
FEW_RHS_CROSSOVER = 4

#: at or below this many cells per layer (16x16) both a factorization and
#: a multigrid setup cost milliseconds; ``auto`` keeps the direct solve
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


def multigrid_threshold() -> int:
    """Cells-per-layer bound above which ``auto`` engages multigrid."""
    return _MULTIGRID_THRESHOLD


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

    The few-RHS rule rests on cold n100 timings (2-core host) of one
    SuperLU factorization + 1 solve against one multigrid setup + 1
    solve:

    ======  ===================  ===================  ===================
    stack   16x16                32x32                48x48
    ======  ===================  ===================  ===================
    3D      0.015 vs 0.011 s     0.16 vs 0.04 s       0.42 vs 0.06 s
    2.5D    0.039 vs 0.028 s     0.37 vs 0.135 s      1.25 vs 0.35 s
    ======  ===================  ===================  ===================

    Each further right-hand side costs a PCG solve, ~10x a SuperLU
    back-substitution, which puts the break-even near 4 RHS at 20x20 and
    6-10 RHS at 32x32-48x48; :data:`FEW_RHS_CROSSOVER` sits at the low
    end.  At 16x16 and below the two tie within a few milliseconds (two
    RHS already favour SuperLU), so budgets change nothing there.  Each
    dummy-TSV candidate states a budget of 1 (its one nominal solve); a
    round's activity sweep states none, so only a swept TSV pattern is
    factorized.
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
        cells_per_layer > multigrid_threshold()
        or (
            rhs_budget is not None
            and rhs_budget <= FEW_RHS_CROSSOVER
            and cells_per_layer > _FEW_RHS_MIN_CELLS
        )
    ):
        multigrid = get_backend("multigrid")
        if multigrid.available():
            return multigrid
    return get_backend("superlu")

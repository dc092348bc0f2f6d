"""Versioned on-disk persistence of factorization payloads.

A persisted factorization is ``fact-<digest>.npz``, where the digest
covers the solver-cache key including the backend name.  Besides the
SuperLU triangular pair (``L_*``, ``U_*`` as CSC triples, ``perm_r``,
``perm_c``, ``shape``) and the ``conductance_digest`` the cache checks
on load, a payload carries three marker fields: ``format`` (2),
``backend`` (the writer's registry name) and ``kind`` (``lu``).  Files
written by older revisions are simply not found under the current name;
a cache directory can always be deleted.

The fault sites (``lu.save`` / ``lu.load``) and the degradation key
(``persisted_lu.load_failed``) keep their historical names — chaos tests
and operators' ledgers do not churn with the format.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from ...core.faults import fault_point, warn_degraded

__all__ = [
    "FORMAT_VERSION",
    "KIND_LU",
    "load_payload",
    "save_payload",
    "triangular_matrices",
]

FORMAT_VERSION = 2
KIND_LU = "lu"

#: payload keys holding sparse matrices as (data, indices, indptr) triples
_MATRIX_PREFIXES = ("L", "U")


def triangular_matrices(payload: Dict[str, np.ndarray]):
    """The CSC factor matrices ``{"L": ..., "U": ...}`` of a payload."""
    shape = tuple(int(v) for v in payload["shape"])
    return {
        prefix: sp.csc_matrix(
            (
                payload[f"{prefix}_data"],
                payload[f"{prefix}_indices"],
                payload[f"{prefix}_indptr"],
            ),
            shape=shape,
        )
        for prefix in _MATRIX_PREFIXES
    }


def matrix_arrays(prefix: str, matrix: sp.spmatrix) -> Dict[str, np.ndarray]:
    """``matrix`` flattened to the npz triple under ``prefix``."""
    m = matrix.tocsc()
    return {
        f"{prefix}_data": m.data,
        f"{prefix}_indices": m.indices,
        f"{prefix}_indptr": m.indptr,
    }


def save_payload(path: Path, payload: Dict[str, np.ndarray]) -> None:
    """Persist a payload atomically (torn writers never leave a readable
    half-file under the final name)."""
    from ...core.store import persist_atomic

    def write(tmp: Path) -> str:
        fault_point("lu.save")
        np.savez(tmp, **payload)
        return str(tmp) + ".npz"  # np.savez appends .npz to the temp name

    persist_atomic(path, write)


def load_payload(path: Path) -> Optional[Dict[str, np.ndarray]]:
    """The payload stored at ``path``, or None.

    A torn file from a crashed writer can carry a valid zip header with
    a truncated payload (BadZipFile/EOFError) — any unreadable cache
    entry means "factorize fresh" (a counted, warned degradation), never
    a crash mid-sweep.
    """
    try:
        fault_point("lu.load")
        with np.load(path) as z:
            payload = {key: z[key] for key in z.files}
        if "shape" not in payload:
            raise KeyError("shape")
        return payload
    except FileNotFoundError:
        return None  # a cold cache is the normal case, not a degradation
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        warn_degraded(
            "persisted_lu.load_failed",
            f"unreadable persisted factors {path.name} ({exc!r}); "
            "factorizing fresh",
        )
        return None

"""Side-channel vulnerability factor (SVF), the attack tests' cross-check.

The paper motivates the Pearson correlation as "the underlying measure for
the side-channel vulnerability factor" (Demme et al.).  SVF proper
correlates *similarity matrices* of oracle traces (here: power/activity
patterns) and side-channel traces (here: thermal readings) over time.  It
condenses a whole attack campaign, many activity patterns and their
thermal responses, into one leakage number; the integration tests check
that it agrees with the characterization attack.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.leakage.pearson import pearson


def similarity_matrix(traces: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise-distance similarity matrix of a trace sequence.

    ``traces`` is a length-m sequence of equally shaped snapshots; entry
    (i, j) of the result is the Euclidean distance between snapshots i and
    j.  Only the upper triangle is meaningful to SVF; the full symmetric
    matrix is returned for convenience.
    """
    if len(traces) < 2:
        raise ValueError("need at least two snapshots")
    flat = np.stack([np.asarray(t, dtype=float).ravel() for t in traces])
    diff = flat[:, None, :] - flat[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def svf(oracle_traces: Sequence[np.ndarray], side_traces: Sequence[np.ndarray]) -> float:
    """SVF: correlation of oracle vs. side-channel similarity structures.

    1.0 means the side channel preserves the complete similarity structure
    of the secret activity (maximal leakage); 0.0 means no structural
    leakage.  Negative correlations are clamped to 0 per the original
    definition's interpretation (an inverted structure still leaks, but
    the metric reports the attacker-aligned component).
    """
    if len(oracle_traces) != len(side_traces):
        raise ValueError("oracle and side-channel trace counts must match")
    om = similarity_matrix(oracle_traces)
    sm = similarity_matrix(side_traces)
    iu = np.triu_indices(om.shape[0], k=1)
    r = pearson(om[iu], sm[iu])
    return float(max(0.0, r))

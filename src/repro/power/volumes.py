"""Voltage volumes: 3D voltage domains grown over adjacent modules.

Sec. 6.1: "Voltage volumes — the generalized 3D version of voltage
domains spanning across multiple dies — are constructed by considering
each module individually as the root for a multi-branch tree
representation...  Each tree/volume is recursively built up via a
breadth-first search across the respectively adjacent modules.  During
this merging procedure, we update the resulting set of feasible voltages."

Adjacency is geometric: modules touching laterally on the same die, or
overlapping in footprint on vertically adjacent dies (a volume may span
dies — that is what makes it a *volume* rather than an island).  The
feasible voltage set of a volume is the intersection of its members'
feasible sets.  That intersection is never empty —
:func:`~repro.power.voltages.feasible_voltages` always keeps the 1.0 V
and 1.2 V levels — so growth is a plain breadth-first search.

Everything here runs in one index space: per-module arrays hold module
``k``, the ``k``-th name in sorted order, at ``k``, and a feasible set
is a bitmask over :data:`~repro.power.voltages.DEFAULT_LEVELS` (bit
``k`` is level ``k``).  Geometry is lower-left corners ``x``/``y``,
sizes ``w``/``h``, dies and ``pos``, each module's position in placement
order (it breaks ties in x and orders the growth roots).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import and_
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from .voltages import DEFAULT_LEVELS, VoltageLevel, feasible_voltages

__all__ = ["VoltageVolume", "sorted_rank", "module_adjacency", "grow_volumes"]


@dataclass(frozen=True)
class VoltageVolume:
    """A selected voltage domain: member module indices + common
    feasible set."""

    members: FrozenSet[int]
    feasible: Tuple[VoltageLevel, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a voltage volume needs at least one member")
        if not self.feasible:
            raise ValueError("a voltage volume needs a non-empty feasible set")


#: lateral gap (um) within which two same-die modules count as touching
_TOUCH_MARGIN = 1.0


def level_mask(slack_ratio: float) -> int:
    """The levels feasible at ``slack_ratio``, as a bitmask."""
    return sum(1 << DEFAULT_LEVELS.index(lv) for lv in feasible_voltages(slack_ratio))


def mask_levels(mask: int) -> Tuple[VoltageLevel, ...]:
    """The levels of a bitmask, lowest voltage first (``DEFAULT_LEVELS``
    is in ascending voltage order)."""
    return tuple(lv for k, lv in enumerate(DEFAULT_LEVELS) if mask >> k & 1)


def sorted_rank(names: Sequence[str]) -> np.ndarray:
    """The positions of ``names`` in sorted-name order: ``a[rank]``
    gathers a per-module array in ``names`` order into this module's
    index space, and ``rank`` is then each module's ``pos`` when
    ``names`` is the placement order."""
    return np.array(sorted(range(len(names)), key=names.__getitem__), dtype=np.int64)


def module_adjacency(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, h: np.ndarray,
    die: np.ndarray, pos: np.ndarray,
) -> np.ndarray:
    """Geometric adjacency of placed modules, as an ``(n, n)`` boolean
    matrix over module indices.

    Two modules are adjacent when (a) they share a die and their rects
    touch within :data:`_TOUCH_MARGIN` um, or (b) they sit on vertically
    neighbouring dies and their footprints' open interiors overlap.

    (a) is the predicate of an x-sweep: of a same-die pair ordered by
    ``(x, pos)``, the later module, grown by the margin on every side,
    must touch the earlier one as closed rects, and the earlier one's
    right edge plus the margin must lie past the later one's left edge.
    """
    x2, y2 = x + w, y + h
    m = _TOUCH_MARGIN
    # rows: the later module p (grown by m); columns: the earlier module q
    gx, gy = x - m, y - m
    gx2, gy2 = gx + (w + 2 * m), gy + (h + 2 * m)
    later = (x[:, None] > x) | ((x[:, None] == x) & (pos[:, None] > pos))
    lateral = (
        later
        & (die[:, None] == die)
        & (x2 + m > x[:, None])
        & (gx[:, None] <= x2)
        & (x <= gx2[:, None])
        & (gy[:, None] <= y2)
        & (y <= gy2[:, None])
    )
    vertical = (
        (np.abs(die[:, None] - die) == 1)
        & (x[:, None] < x2)
        & (x < x2[:, None])
        & (y[:, None] < y2)
        & (y < y2[:, None])
    )
    return lateral | lateral.T | vertical


def grow_volumes(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, h: np.ndarray,
    die: np.ndarray, pos: np.ndarray, slack: np.ndarray,
    max_volume_size: int = 40,
) -> List[Tuple[np.ndarray, int]]:
    """Grow candidate voltage volumes from every module (BFS trees).

    ``slack[k]`` is module k's maximum tolerable delay-scaling factor
    from the timing analysis.  Each root's breadth-first prefixes become
    candidate volumes (the tree-node semantics of Sec. 6.1: "each node
    comprises a volume").  Roots are taken in placement order and
    neighbours in index order; growth from one root stops when its
    connected component is exhausted or at ``max_volume_size`` members.

    Only prefixes at power-of-two sizes plus the maximal prefix are
    recorded, which keeps the candidate pool linear in the module count
    (the paper's full tree of every node would grow it quadratically).

    Returns ``(members, feasible)`` per candidate, deduplicated by member
    set: the sorted member indices and the feasible-level bitmask.
    """
    neighbours = [np.flatnonzero(row).tolist() for row in module_adjacency(x, y, w, h, die, pos)]
    masks = [level_mask(s) for s in slack.tolist()]
    seen = set()
    volumes: List[Tuple[np.ndarray, int]] = []
    for root in np.argsort(pos).tolist():
        # a growing list is its own BFS queue: members in visiting order
        members = [root]
        queued = {root}
        for k in members:
            fresh = [q for q in neighbours[k] if q not in queued]
            queued.update(fresh)
            members.extend(fresh[: max_volume_size - len(members)])
            if len(members) == max_volume_size:
                break
        feasible = list(accumulate((masks[k] for k in members), and_))
        size = len(members)
        for prefix in [1 << b for b in range(size.bit_length()) if 1 << b < size] + [size]:
            key = tuple(sorted(members[:prefix]))
            if key not in seen:
                seen.add(key)
                volumes.append((np.array(key, dtype=np.int64), feasible[prefix - 1]))
    return volumes

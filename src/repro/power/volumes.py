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
feasible sets; growth stops when the intersection would become empty.

Everything here runs in one index space: module ``k`` is the ``k``-th
name in sorted order, and a feasible set is a bitmask over
:data:`~repro.power.voltages.DEFAULT_LEVELS` (bit ``k`` is level ``k``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, List, Mapping, Tuple

import numpy as np

from ..layout.floorplan import Floorplan3D
from .voltages import DEFAULT_LEVELS, VoltageLevel, feasible_voltages

__all__ = ["VoltageVolume", "module_adjacency", "grow_volumes"]


@dataclass(frozen=True)
class VoltageVolume:
    """A selected voltage domain: member modules + common feasible set."""

    members: FrozenSet[str]
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


def module_adjacency(floorplan: Floorplan3D) -> np.ndarray:
    """Geometric adjacency of placed modules, as an ``(n, n)`` boolean
    matrix over the module names in sorted order.

    Two modules are adjacent when (a) they share a die and their rects
    touch within :data:`_TOUCH_MARGIN` um, or (b) they sit on vertically
    neighbouring dies and their footprints' open interiors overlap.

    (a) is the predicate of an x-sweep: of a same-die pair ordered by
    ``(x, placement order)``, the later module, grown by the margin on
    every side, must touch the earlier one as closed rects, and the
    earlier one's right edge plus the margin must lie past the later
    one's left edge.
    """
    names = sorted(floorplan.placements)
    order = {name: k for k, name in enumerate(floorplan.placements)}
    placed = [floorplan.placements[name] for name in names]
    x = np.array([p.x for p in placed], dtype=float)
    y = np.array([p.y for p in placed], dtype=float)
    w = np.array([p.width for p in placed], dtype=float)
    h = np.array([p.height for p in placed], dtype=float)
    die = np.array([p.die for p in placed], dtype=np.int64)
    pos = np.array([order[name] for name in names], dtype=np.int64)
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
    floorplan: Floorplan3D,
    max_inflation: Mapping[str, float],
    max_volume_size: int = 40,
) -> List[Tuple[np.ndarray, int]]:
    """Grow candidate voltage volumes from every module (BFS trees).

    ``max_inflation[m]`` is module m's maximum tolerable delay-scaling
    factor from the timing analysis.  BFS prefixes with a non-empty
    feasible intersection become candidate volumes (the tree-node
    semantics of Sec. 6.1: "each node comprises a volume").  Roots are
    taken in placement order and neighbours in index order.  Growth from
    one root stops when adding the next neighbour would empty the feasible
    set, or at ``max_volume_size`` members.

    Only prefixes at power-of-two sizes plus the maximal prefix are
    recorded, which keeps the candidate pool linear in the module count
    (the paper's full tree of every node would grow it quadratically).

    Returns ``(members, feasible)`` per candidate, deduplicated by member
    set: the sorted member indices and the feasible-level bitmask.
    """
    names = sorted(floorplan.placements)
    index = {name: k for k, name in enumerate(names)}
    neighbours = [np.flatnonzero(row).tolist() for row in module_adjacency(floorplan)]
    masks = [level_mask(max_inflation.get(name, 1.0)) for name in names]

    seen = set()
    volumes: List[Tuple[np.ndarray, int]] = []

    def record(members: List[int], key: int, feas: int) -> None:
        if key not in seen:
            seen.add(key)
            volumes.append((np.array(sorted(members), dtype=np.int64), feas))

    for root in (index[name] for name in floorplan.placements):
        feas = masks[root]
        members = [root]
        key = 1 << root
        frontier = deque(neighbours[root])
        queued = {root, *frontier}
        record(members, key, feas)
        while len(members) < max_volume_size:
            # feasible sets only shrink, so a neighbour that no longer fits
            # never will: drop non-fitting heads and expand the first one
            # that still fits (the order of the others is untouched)
            while frontier and not feas & masks[frontier[0]]:
                frontier.popleft()
            if not frontier:
                break
            nxt = frontier.popleft()
            feas &= masks[nxt]
            members.append(nxt)
            key |= 1 << nxt
            fresh = [k for k in neighbours[nxt] if k not in queued]
            queued.update(fresh)
            frontier.extend(fresh)
            if len(members) & (len(members) - 1) == 0:
                record(members, key, feas)
        record(members, key, feas)  # the maximal prefix is always a candidate
    return volumes

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

from ..layout.floorplan import Floorplan3D
from .voltages import DEFAULT_LEVELS, VoltageLevel, feasible_voltages

__all__ = ["VoltageVolume", "module_adjacency", "grow_volumes"]


@dataclass(frozen=True)
class VoltageVolume:
    """A candidate voltage domain: member modules + common feasible set."""

    members: FrozenSet[str]
    feasible: Tuple[VoltageLevel, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a voltage volume needs at least one member")
        if not self.feasible:
            raise ValueError("a voltage volume needs a non-empty feasible set")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def lowest_voltage(self) -> VoltageLevel:
        return min(self.feasible, key=lambda lv: lv.volts)


#: lateral gap (um) within which two same-die modules count as touching
_TOUCH_MARGIN = 1.0


def module_adjacency(floorplan: Floorplan3D) -> Dict[str, Set[str]]:
    """Geometric adjacency of placed modules.

    Two modules are adjacent when (a) they share a die and their rects
    touch within :data:`_TOUCH_MARGIN` um, or (b) they sit on vertically
    neighbouring dies and their footprints overlap.  Sweep-based, so large
    benchmarks stay fast.
    """
    adj: Dict[str, Set[str]] = {name: set() for name in floorplan.placements}
    placements = list(floorplan.placements.values())

    # same-die lateral adjacency
    for die in range(floorplan.stack.num_dies):
        on_die = [p for p in placements if p.die == die]
        on_die.sort(key=lambda p: p.rect.x)
        active: List = []
        for p in on_die:
            r = p.rect.inflated(_TOUCH_MARGIN)
            active = [q for q in active if q.rect.x2 + _TOUCH_MARGIN > p.rect.x]
            for q in active:
                if r.touches_or_overlaps(q.rect):
                    adj[p.name].add(q.name)
                    adj[q.name].add(p.name)
            active.append(p)

    # cross-die vertical adjacency (footprint overlap on neighbouring dies)
    for die_a, die_b in floorplan.stack.die_pairs():
        lower = sorted(
            (p for p in placements if p.die == die_a), key=lambda p: p.rect.x
        )
        upper = sorted(
            (p for p in placements if p.die == die_b), key=lambda p: p.rect.x
        )
        active = []
        events = sorted(lower + upper, key=lambda p: p.rect.x)
        for p in events:
            active = [q for q in active if q.rect.x2 > p.rect.x]
            for q in active:
                if q.die != p.die and q.rect.overlaps(p.rect):
                    adj[p.name].add(q.name)
                    adj[q.name].add(p.name)
            active.append(p)
    return adj


def grow_volumes(
    floorplan: Floorplan3D,
    max_inflation: Mapping[str, float],
    levels: Sequence[VoltageLevel] = DEFAULT_LEVELS,
    max_volume_size: int = 40,
    adjacency: Dict[str, Set[str]] | None = None,
) -> List[VoltageVolume]:
    """Grow candidate voltage volumes from every module (BFS trees).

    ``max_inflation[m]`` is module m's maximum tolerable delay-scaling
    factor from the timing analysis.  BFS prefixes with a non-empty
    feasible intersection become candidate volumes (the tree-node
    semantics of Sec. 6.1: "each node comprises a volume").  Growth from
    one root stops when adding the next neighbour would empty the feasible
    set, or at ``max_volume_size`` members.

    Only prefixes at power-of-two sizes plus the maximal prefix are
    recorded, which keeps the candidate pool linear in the module count
    (the paper's full tree of every node would grow it quadratically).

    Returns candidates deduplicated by member set.
    """
    if adjacency is None:
        adjacency = module_adjacency(floorplan)
    per_module_feasible: Dict[str, Tuple[VoltageLevel, ...]] = {
        name: tuple(feasible_voltages(max_inflation.get(name, 1.0), levels))
        for name in floorplan.placements
    }

    seen: Set[FrozenSet[str]] = set()
    volumes: List[VoltageVolume] = []

    def record(member_set: Set[str], feas: Set[VoltageLevel]) -> None:
        key = frozenset(member_set)
        if key not in seen:
            seen.add(key)
            volumes.append(
                VoltageVolume(key, tuple(sorted(feas, key=lambda lv: lv.volts)))
            )

    for root in floorplan.placements:
        feas = set(per_module_feasible[root])
        members: List[str] = [root]
        member_set: Set[str] = {root}
        frontier: List[str] = sorted(adjacency[root])
        record(member_set, feas)
        next_pow2 = 2
        while frontier and len(members) < max_volume_size:
            # BFS: expand the next adjacent module keeping feasibility
            nxt = None
            nxt_feas: Set[VoltageLevel] = set()
            for cand in frontier:
                cand_feas = feas & set(per_module_feasible[cand])
                if cand_feas:
                    nxt = cand
                    nxt_feas = cand_feas
                    break
            if nxt is None:
                break
            frontier.remove(nxt)
            members.append(nxt)
            member_set.add(nxt)
            feas = nxt_feas
            for neigh in sorted(adjacency[nxt]):
                if neigh not in member_set and neigh not in frontier:
                    frontier.append(neigh)
            if len(members) >= next_pow2:
                record(member_set, feas)
                while next_pow2 <= len(members):
                    next_pow2 *= 2
        record(member_set, feas)  # the maximal prefix is always a candidate
    return volumes

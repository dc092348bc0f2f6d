"""Object-level oracle for voltage-volume assignment (paper Sec. 6.1).

The name-keyed implementation the index-based ``repro.power`` pipeline
must reproduce with ``==``: the per-module slack dict read from a timing
report, x-sweep adjacency over ``Rect`` objects, BFS volume growth over
``frozenset``s of names and sets of levels, and the lazy-heap greedy
cover scored from name-keyed lists.  :func:`geometry`,
:func:`assignment_args` and :func:`by_name` translate between a
floorplan's names and the pipeline's sorted-name index space.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Set, Tuple

import numpy as np

from repro.layout.floorplan import Floorplan3D
from repro.layout.geometry import Rect
from repro.power.assignment import AssignmentObjective, VoltageAssignment
from repro.power.voltages import VoltageLevel, feasible_voltages
from repro.power.volumes import VoltageVolume, sorted_rank
from repro.timing.paths import TimingGraph

_TOUCH_MARGIN = 1.0


def geometry(floorplan: Floorplan3D) -> Tuple[np.ndarray, ...]:
    """``(x, y, w, h, die, pos)`` of a floorplan's modules in sorted-name
    order, ``pos`` their positions in placement order."""
    names = list(floorplan.placements)
    x, y, w, h, die, _, _ = floorplan.module_arrays(names)
    rank = sorted_rank(names)
    return x[rank], y[rank], w[rank], h[rank], die[rank], rank


def assignment_args(
    floorplan: Floorplan3D, max_inflation: Mapping[str, float]
) -> Tuple[np.ndarray, ...]:
    """``assign_voltages``' array arguments for a floorplan and a
    name-keyed slack (1.0 for a module it does not name)."""
    names = sorted(floorplan.placements)
    power = np.array([floorplan.placements[n].module.power for n in names])
    slack = np.array([max_inflation.get(n, 1.0) for n in names], dtype=float)
    return (*geometry(floorplan), power, slack)


def by_name(floorplan: Floorplan3D, got: VoltageAssignment) -> VoltageAssignment:
    """An index-space assignment keyed by the floorplan's module names,
    as :func:`assign_voltages_loop` returns it."""
    names = sorted(floorplan.placements)
    return VoltageAssignment(
        voltages=dict(zip(names, got.voltages.tolist())),
        volumes=[
            VoltageVolume(frozenset(names[k] for k in v.members), v.feasible)
            for v in got.volumes
        ],
        chosen=got.chosen,
    )


def max_delay_inflation_loop(
    timing: TimingGraph, floorplan: Floorplan3D
) -> Dict[str, float]:
    """Per-module slack from the nominal (all-1.0 V) timing report, one
    module at a time."""
    nominal = timing.evaluate(floorplan.with_voltages({n: 1.0 for n in floorplan.placements}))
    target_ns = nominal.critical_delay_ns
    out: Dict[str, float] = {}
    for name, p in floorplan.placements.items():
        d_mod = p.module.intrinsic_delay
        slack = target_ns - nominal.through_ns.get(name, 0.0)
        if d_mod <= 0:
            out[name] = float("inf")
        else:
            out[name] = max(1.0, 1.0 + slack / d_mod)
    return out


def _inflated(r: Rect, margin: float) -> Rect:
    return Rect(r.x - margin, r.y - margin, max(0.0, r.w + 2 * margin), max(0.0, r.h + 2 * margin))


def _touches_or_overlaps(a: Rect, b: Rect) -> bool:
    """Whether the closed rectangles intersect (shared edges count)."""
    return a.x <= b.x2 and b.x <= a.x2 and a.y <= b.y2 and b.y <= a.y2


def _overlaps(a: Rect, b: Rect) -> bool:
    """Whether the open interiors of the rectangles intersect."""
    return a.x < b.x2 and b.x < a.x2 and a.y < b.y2 and b.y < a.y2


def _lowest_voltage(vol: VoltageVolume) -> VoltageLevel:
    return min(vol.feasible, key=lambda lv: lv.volts)


def module_adjacency_loop(floorplan: Floorplan3D) -> Dict[str, Set[str]]:
    adj: Dict[str, Set[str]] = {name: set() for name in floorplan.placements}
    placements = list(floorplan.placements.values())

    for die in range(floorplan.stack.num_dies):
        on_die = [p for p in placements if p.die == die]
        on_die.sort(key=lambda p: p.rect.x)
        active: List = []
        for p in on_die:
            r = _inflated(p.rect, _TOUCH_MARGIN)
            active = [q for q in active if q.rect.x2 + _TOUCH_MARGIN > p.rect.x]
            for q in active:
                if _touches_or_overlaps(r, q.rect):
                    adj[p.name].add(q.name)
                    adj[q.name].add(p.name)
            active.append(p)

    for die_a, die_b in floorplan.stack.die_pairs():
        lower = sorted((p for p in placements if p.die == die_a), key=lambda p: p.rect.x)
        upper = sorted((p for p in placements if p.die == die_b), key=lambda p: p.rect.x)
        active = []
        for p in sorted(lower + upper, key=lambda p: p.rect.x):
            active = [q for q in active if q.rect.x2 > p.rect.x]
            for q in active:
                if q.die != p.die and _overlaps(q.rect, p.rect):
                    adj[p.name].add(q.name)
                    adj[q.name].add(p.name)
            active.append(p)
    return adj


def grow_volumes_loop(
    floorplan: Floorplan3D,
    max_inflation: Mapping[str, float],
    max_volume_size: int = 40,
) -> List[VoltageVolume]:
    adjacency = module_adjacency_loop(floorplan)
    per_module_feasible = {
        name: tuple(feasible_voltages(max_inflation.get(name, 1.0)))
        for name in floorplan.placements
    }
    seen: Set[frozenset] = set()
    volumes: List[VoltageVolume] = []

    def record(member_set: Set[str], feas: Set[VoltageLevel]) -> None:
        key = frozenset(member_set)
        if key not in seen:
            seen.add(key)
            volumes.append(VoltageVolume(key, tuple(sorted(feas, key=lambda lv: lv.volts))))

    for root in floorplan.placements:
        feas = set(per_module_feasible[root])
        members: List[str] = [root]
        member_set: Set[str] = {root}
        frontier: List[str] = sorted(adjacency[root])
        record(member_set, feas)
        next_pow2 = 2
        while frontier and len(members) < max_volume_size:
            nxt = None
            nxt_feas: Set[VoltageLevel] = set()
            for cand in frontier:
                cand_feas = feas & set(per_module_feasible[cand])
                if cand_feas:
                    nxt, nxt_feas = cand, cand_feas
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
        record(member_set, feas)
    return volumes


def _density(floorplan: Floorplan3D, name: str) -> float:
    p = floorplan.placements[name]
    area = p.width * p.height
    return p.module.power / area if area > 0 else 0.0


def assign_voltages_loop(
    floorplan: Floorplan3D,
    max_inflation: Mapping[str, float],
    objective: str = AssignmentObjective.POWER_AWARE,
    max_volume_size: int = 40,
) -> VoltageAssignment:
    candidates = grow_volumes_loop(floorplan, max_inflation, max_volume_size)
    remaining: Set[str] = set(floorplan.placements)
    selected: List[VoltageVolume] = []
    chosen: List[VoltageLevel] = []
    voltages: Dict[str, float] = {}
    tsc = objective == AssignmentObjective.TSC_AWARE
    if tsc:
        all_dens = np.array([_density(floorplan, m) for m in remaining])
        target_density = float(np.median(all_dens)) if all_dens.size else 0.0

    def score_of(vol: VoltageVolume) -> float:
        if not tsc:
            members = vol.members & remaining
            lv = _lowest_voltage(vol)
            saving = sum(
                floorplan.placements[m].module.power * (1.0 - lv.power_scale) for m in members
            )
            return saving + 1e-3 * len(members)
        members = sorted(vol.members & remaining)
        dens = np.array([_density(floorplan, m) for m in members])
        mean = float(dens.mean())
        spread = float(dens.std() / mean) if mean > 0 else 0.0
        return float(len(members) ** 0.35) / (1.0 + 8.0 * spread)

    heap: List[Tuple[float, int]] = [(-score_of(vol), i) for i, vol in enumerate(candidates)]
    heapq.heapify(heap)
    while remaining:
        vol = None
        while heap:
            _, i = heapq.heappop(heap)
            cand = candidates[i]
            if not (cand.members & remaining):
                continue
            fresh = score_of(cand)
            if not heap or -heap[0][0] <= fresh + 1e-12:
                vol = cand
                break
            heapq.heappush(heap, (-fresh, i))
        assert vol is not None  # every uncovered module's singleton qualifies
        members = vol.members & remaining
        effective = VoltageVolume(frozenset(members), vol.feasible)
        if not tsc:
            level = _lowest_voltage(effective)
        else:
            dens = np.array([_density(floorplan, m) for m in sorted(effective.members)])
            mean = float(dens.mean()) if dens.size else 0.0
            level, best_err = None, np.inf
            for lv in effective.feasible:
                err = abs(mean * lv.power_scale - target_density)
                if err < best_err:
                    level, best_err = lv, err
        selected.append(effective)
        chosen.append(level)
        for m in members:
            voltages[m] = level.volts
        remaining -= members
    return VoltageAssignment(voltages=voltages, volumes=selected, chosen=chosen)

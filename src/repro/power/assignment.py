"""Voltage-volume selection: the floorplanning-centric voltage assignment.

Two selection objectives, matching the paper's two setups (Sec. 7):

* **Power-aware (PA)** — "minimize both the overall power and the number
  of required voltage volumes": greedy set cover preferring large volumes
  with low feasible voltages.
* **TSC-aware** — "minimize (a) the number of required voltage volumes and
  (b) the standard deviations of power gradients among and across
  different volumes": greedy set cover preferring volumes whose members
  have *uniform power density*, then per-volume voltage choice that pulls
  every volume's density toward the global target — flattening the power
  map that the thermal side channel would otherwise expose.

Both run in-loop during annealing, so the implementation is a single
greedy pass (the paper stresses that MILP formulations are impractical
inside floorplanning loops — our greedy mirrors its "low runtime cost"
claim).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .voltages import VoltageLevel
from .volumes import VoltageVolume, grow_volumes, mask_levels

__all__ = ["AssignmentObjective", "VoltageAssignment", "assign_voltages"]


class AssignmentObjective:
    """Selection objective tags."""

    POWER_AWARE = "power_aware"
    TSC_AWARE = "tsc_aware"


@dataclass
class VoltageAssignment:
    """Result of the assignment stage, in the module index space of
    :mod:`repro.power.volumes`."""

    #: supply volts per module
    voltages: np.ndarray
    volumes: List[VoltageVolume]
    #: chosen level per selected volume (parallel to ``volumes``)
    chosen: List[VoltageLevel]

    @property
    def num_volumes(self) -> int:
        return len(self.volumes)


def assign_voltages(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, h: np.ndarray,
    die: np.ndarray, pos: np.ndarray, power: np.ndarray, slack: np.ndarray,
    objective: str = AssignmentObjective.POWER_AWARE,
    max_volume_size: int = 40,
) -> VoltageAssignment:
    """Grow candidate volumes and select a disjoint cover of all modules.

    The arrays are per module, in the index space of
    :mod:`repro.power.volumes`: geometry and ``pos`` as for
    :func:`~repro.power.volumes.grow_volumes`, nominal ``power`` in W
    and ``slack``, the maximum tolerable delay-scaling factor.

    Returns the per-module voltages, the selected volumes, and the chosen
    level per volume.  Every module is always covered: each module's
    singleton volume is a candidate, and the 1.0 V reference is always
    feasible.

    Power-aware scores a volume by the power its lowest feasible level
    saves, plus a size bonus, and picks that level.  TSC-aware scores
    large volumes of uniform power density, and picks the feasible level
    pulling the volume's mean density closest to the median density.
    """
    if objective not in (AssignmentObjective.POWER_AWARE, AssignmentObjective.TSC_AWARE):
        raise ValueError(f"unknown objective {objective!r}")
    tsc = objective == AssignmentObjective.TSC_AWARE
    area = w * h
    density = np.divide(power, area, out=np.zeros(len(power)), where=area > 0)
    target_density = float(np.median(density)) if density.size else 0.0
    candidates = grow_volumes(x, y, w, h, die, pos, slack, max_volume_size)
    remaining = np.ones(len(power), dtype=bool)

    def score_of(live: np.ndarray, feas: int) -> float:
        """Higher is better; scores only shrink as ``remaining`` does."""
        if not tsc:
            saving = power[live] * (1.0 - mask_levels(feas)[0].power_scale)
            return sum(saving.tolist()) + 1e-3 * len(live)
        dens = density[live]
        return _uniformity(len(live), float(dens.mean()), float(dens.std()))

    if tsc:
        scores = _uniformity_scores(candidates, density)
    else:
        scores = [score_of(members, feas) for members, feas in candidates]
    # lazy greedy cover: a heap of possibly stale scores re-validated on
    # pop finds the max without rescoring the whole pool each round.  A
    # score depends only on the candidate's live members, which only
    # shrink, so an unchanged live count means an unchanged score.
    heap: List[Tuple[float, int]] = [(-score, k) for k, score in enumerate(scores)]
    heapq.heapify(heap)
    scored_live = [len(members) for members, _ in candidates]
    selected: List[VoltageVolume] = []
    chosen: List[VoltageLevel] = []
    voltages = np.ones(len(power))
    uncovered = len(power)
    while uncovered:
        while True:
            neg_score, k = heapq.heappop(heap)
            members, feas = candidates[k]
            live = members[remaining[members]]
            if not live.size:
                continue
            if live.size == scored_live[k]:
                fresh = -neg_score
            else:
                fresh = score_of(live, feas)
                scored_live[k] = live.size
            if not heap or -heap[0][0] <= fresh + 1e-12:
                break
            heapq.heappush(heap, (-fresh, k))
        feasible = mask_levels(feas)
        if tsc:
            mean = float(density[live].mean())
            level = min(feasible, key=lambda lv: abs(mean * lv.power_scale - target_density))
        else:
            level = feasible[0]
        remaining[live] = False
        uncovered -= live.size
        selected.append(VoltageVolume(frozenset(live.tolist()), feasible))
        chosen.append(level)
        voltages[live] = level.volts

    return VoltageAssignment(voltages=voltages, volumes=selected, chosen=chosen)


def _uniformity_scores(
    candidates: List[Tuple[np.ndarray, int]], density: np.ndarray
) -> List[float]:
    """The TSC score of every candidate over all its members.

    Candidates of one size are scored together: the row-wise ``mean`` and
    ``std`` of their gathered ``(C, n)`` density block reduce each row
    exactly as a candidate's own ``density[members].mean()`` / ``.std()``
    would, and :func:`_uniformity` is the formula rescoring applies.
    """
    by_size: Dict[int, List[int]] = {}
    for k, (members, _) in enumerate(candidates):
        by_size.setdefault(len(members), []).append(k)
    scores = [0.0] * len(candidates)
    for size, ks in by_size.items():
        dens = density[np.stack([candidates[k][0] for k in ks])]
        for k, mean, std in zip(ks, dens.mean(axis=1).tolist(), dens.std(axis=1).tolist()):
            scores[k] = _uniformity(size, mean, std)
    return scores


def _uniformity(size: int, mean: float, std: float) -> float:
    """The TSC score of a volume of ``size`` live members whose power
    densities have this mean and standard deviation."""
    spread = std / mean if mean > 0 else 0.0
    # Uniformity dominates: merging helps only while the power densities
    # stay flat, so TSC assignments end up with more, smaller volumes than
    # PA (the paper reports ~87% more) but each volume is homogeneous.
    return float(size**0.35) / (1.0 + 8.0 * spread)

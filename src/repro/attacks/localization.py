"""Attack 2: localization and monitoring of modules (Sec. 5).

"The attacker targets on particular modules by applying crafted input
patterns; the objective is to trigger these modules and observe thermal
variations exclusively or at least predominantly within these modules...
Once the thermal response is confined to particular regions ... an
attacker may now observe the sensitive activity/computation of particular
modules by monitoring them during runtime."

Localization: the attacker toggles one input bit (which drives the target
module, among others) and averages differential thermal maps; the
estimated location is the intensity centroid of the strongest response
region.  Monitoring: with the location fixed, the attacker correlates a
random activity sequence of the target with the thermal reading at the
estimated spot — the Pearson r *is* the covert observation quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..leakage.pearson import pearson
from .device import ThermalDevice

__all__ = ["LocalizationResult", "localize_module", "monitor_module"]


@dataclass
class LocalizationResult:
    """Outcome of a localization attempt for one target module."""

    target: str
    #: estimated position in um (die coordinates)
    estimate_xy: Tuple[float, float]
    #: true module centre in um
    true_xy: Tuple[float, float]
    #: Euclidean error normalized by the die diagonal
    normalized_error: float
    #: whether the estimate falls inside the module footprint
    hit: bool
    #: differential map used for the estimate (diagnostic)
    diff_map: np.ndarray


def _target_bit(device: ThermalDevice, target: str) -> Optional[int]:
    """The input bit driving the target module, if any (attacker finds it
    by sweeping bits; we shortcut the sweep deterministically)."""
    for bit in range(device.num_bits):
        if target in device.activity_model.bit_drives(bit):
            return bit
    return None


def localize_module(
    device: ThermalDevice,
    target: str,
    trials: int = 6,
    top_fraction: float = 0.05,
    seed: int = 0,
) -> LocalizationResult:
    """Differential localization of ``target`` on its die.

    Each trial draws a random base pattern and observes the device with
    the target's bit deasserted vs. asserted; the averaged |difference|
    map highlights the region heated by the extra activity.  The estimate
    is the intensity centroid of the top ``top_fraction`` of bins.
    """
    placement = device.floorplan.placements.get(target)
    if placement is None:
        raise KeyError(f"unknown module {target!r}")
    bit = _target_bit(device, target)
    if bit is None:
        raise ValueError(f"module {target!r} is not driven by any input bit")
    die = placement.die
    rng = np.random.default_rng(seed)

    acc = np.zeros(device.grid.shape)
    for _ in range(trials):
        base = list(int(b) for b in rng.integers(0, 2, size=device.num_bits))
        base[bit] = 0
        off = device.observe(tuple(base), die=die)
        base[bit] = 1
        on = device.observe(tuple(base), die=die)
        acc += np.abs(on - off)
    acc /= trials

    flat = acc.ravel()
    k = max(1, int(top_fraction * flat.size))
    top_idx = np.argsort(flat)[::-1][:k]
    weights = flat[top_idx]
    jj, ii = np.unravel_index(top_idx, acc.shape)
    wsum = weights.sum()
    if wsum <= 0:
        cj, ci = acc.shape[0] / 2.0, acc.shape[1] / 2.0
    else:
        cj = float((jj * weights).sum() / wsum)
        ci = float((ii * weights).sum() / wsum)
    est_x, est_y = device.grid.cell_center(int(round(ci)), int(round(cj)))

    true_x, true_y = placement.center
    outline = device.floorplan.stack.outline
    diag = float(np.hypot(outline.w, outline.h))
    err = float(np.hypot(est_x - true_x, est_y - true_y)) / diag
    hit = placement.rect.contains_point(est_x, est_y)
    return LocalizationResult(
        target=target,
        estimate_xy=(est_x, est_y),
        true_xy=(true_x, true_y),
        normalized_error=err,
        hit=hit,
        diff_map=acc,
    )


def monitor_module(
    device: ThermalDevice,
    target: str,
    location_xy: Tuple[float, float],
    steps: int = 24,
    seed: int = 0,
    background: str = "fixed",
) -> float:
    """Monitoring fidelity: Pearson r between the target's activity
    sequence and the thermal reading at the attacker's chosen location.

    The target's activity toggles randomly per step (the secret
    computation).  ``background`` selects the attacker strength:

    * ``"fixed"`` — the paper's strong attacker, who "stabilizes the 3D
      IC's activity with the help of specifically crafted, repetitive
      input patterns" (Sec. 5): all other inputs are held constant, so
      the readout varies only with the target.
    * ``"random"`` — runtime monitoring against live background activity,
      exercising the TSC's superposition-noise limitation (Sec. 2.1).

    Values near 1 mean the attacker reads the module's activity straight
    off the sensor; decorrelated designs push it toward 0.
    """
    if background not in ("fixed", "random"):
        raise ValueError(f"unknown background mode {background!r}")
    placement = device.floorplan.placements.get(target)
    if placement is None:
        raise KeyError(f"unknown module {target!r}")
    bit = _target_bit(device, target)
    if bit is None:
        raise ValueError(f"module {target!r} is not driven by any input bit")
    die = placement.die
    rng = np.random.default_rng(seed)
    i, j = device.grid.cell_of(*location_xy)

    base = list(int(b) for b in rng.integers(0, 2, size=device.num_bits))
    activities: List[float] = []
    readings: List[float] = []
    for _ in range(steps):
        if background == "random":
            pattern = list(int(b) for b in rng.integers(0, 2, size=device.num_bits))
        else:
            pattern = list(base)
        pattern[bit] = int(rng.integers(0, 2))
        reading = device.observe(tuple(pattern), die=die)
        activities.append(float(pattern[bit]))
        readings.append(float(reading[j, i]))
    if np.std(activities) == 0:
        return 0.0
    return abs(pearson(np.asarray(activities), np.asarray(readings)))

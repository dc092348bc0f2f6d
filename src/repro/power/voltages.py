"""Supply-voltage levels and their power/delay scaling factors.

The paper evaluates three voltage options simulated for the 90 nm node
(Sec. 7, citing Lin's multiple-power-domain study):

* 0.8 V — power x0.817, delay x1.56
* 1.0 V — reference (no impact)
* 1.2 V — power x1.496, delay x0.83

These triplets are used verbatim.  Intermediate voltages interpolate the
published points so property-based tests can exercise monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "VoltageLevel",
    "DEFAULT_LEVELS",
    "power_scale_for",
    "delay_scale_for",
    "scaled_power",
    "scaled_delay",
    "total_power",
    "feasible_voltages",
]


@dataclass(frozen=True)
class VoltageLevel:
    """One selectable supply voltage with its scaling factors."""

    volts: float
    power_scale: float
    delay_scale: float

    def __post_init__(self) -> None:
        if self.volts <= 0:
            raise ValueError("voltage must be positive")
        if self.power_scale <= 0 or self.delay_scale <= 0:
            raise ValueError("scaling factors must be positive")


#: The paper's three voltage options for the 90 nm node (Sec. 7).
DEFAULT_LEVELS: Tuple[VoltageLevel, ...] = (
    VoltageLevel(0.8, 0.817, 1.56),
    VoltageLevel(1.0, 1.0, 1.0),
    VoltageLevel(1.2, 1.496, 0.83),
)

_LEVELS_BY_VOLTS: Dict[float, VoltageLevel] = {lv.volts: lv for lv in DEFAULT_LEVELS}


def _interpolate(volts: float, attr: str) -> float:
    """Piecewise-linear interpolation of a scaling factor over the
    published voltage points, clamped at the extremes."""
    pts = sorted(DEFAULT_LEVELS, key=lambda lv: lv.volts)
    xs = np.array([p.volts for p in pts])
    ys = np.array([getattr(p, attr) for p in pts])
    return float(np.interp(volts, xs, ys))


def power_scale_for(volts: float) -> float:
    """Power scaling factor for a supply voltage (1.0 at the 1.0 V ref)."""
    level = _LEVELS_BY_VOLTS.get(round(volts, 6))
    if level is not None:
        return level.power_scale
    return _interpolate(volts, "power_scale")


def delay_scale_for(volts: float) -> float:
    """Delay scaling factor for a supply voltage (1.0 at the 1.0 V ref)."""
    level = _LEVELS_BY_VOLTS.get(round(volts, 6))
    if level is not None:
        return level.delay_scale
    return _interpolate(volts, "delay_scale")


def scaled_power(power: Sequence[float], volts: Sequence[float]) -> np.ndarray:
    """Effective per-module watts: each nominal ``power`` times its
    supply's :func:`power_scale_for`, elementwise."""
    scale = np.array([power_scale_for(v) for v in volts], dtype=float)
    return np.asarray(power, dtype=float) * scale


def scaled_delay(delay: Sequence[float], volts: Sequence[float]) -> np.ndarray:
    """Per-module delays: each nominal ``delay`` times its supply's
    :func:`delay_scale_for`, elementwise."""
    scale = np.array([delay_scale_for(v) for v in volts], dtype=float)
    return np.asarray(delay, dtype=float) * scale


def total_power(power: Sequence[float], volts: Sequence[float]) -> float:
    """Total effective watts of modules, summed one module at a time in
    the given order."""
    return sum(scaled_power(power, volts).tolist())


def feasible_voltages(slack_ratio: float) -> List[VoltageLevel]:
    """Levels of :data:`DEFAULT_LEVELS` whose delay scaling fits within
    the available slack.

    ``slack_ratio`` is the maximum tolerable delay inflation for a module:
    a module whose path delay may grow by 40 % has ``slack_ratio = 1.4``
    and can accept any level with ``delay_scale <= 1.4``.  The reference
    1.0 V level is always feasible (designs close timing at nominal
    supply), matching how the paper treats slack-less modules — they get a
    high voltage, not an infeasible design.
    """
    out = [lv for lv in DEFAULT_LEVELS if lv.delay_scale <= slack_ratio + 1e-12 or lv.volts >= 1.0]
    return sorted(out, key=lambda lv: lv.volts)

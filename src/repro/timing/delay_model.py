"""Module-internal delay model.

The paper estimates module delays "as proposed in [27]" (Lin's
multiple-power-domain floorplanning study); the essential property is an
area-dependent intrinsic delay that scales with the supply voltage's delay
factor.  We use a square-root-of-area model — delay tracks the module's
internal critical path length, which grows with the linear dimension:

    d(m) = K_DELAY * sqrt(area_um2)   [ns at 1.0 V]

The constant is chosen so the Table 1 benchmarks land in the paper's
critical-delay range (~0.8-3.8 ns, Table 2).
"""

from __future__ import annotations

import math
from typing import Mapping

from ..layout.module import Module

__all__ = ["K_DELAY_NS_PER_UM", "ensure_intrinsic_delays"]

#: ns of intrinsic delay per um of module linear dimension.
K_DELAY_NS_PER_UM = 5e-4


def ensure_intrinsic_delays(modules: Mapping[str, Module]) -> dict[str, Module]:
    """Return modules with area-derived delays filled in where missing."""
    out: dict[str, Module] = {}
    for name, m in modules.items():
        if m.intrinsic_delay > 0:
            out[name] = m
        else:
            out[name] = Module(
                m.name,
                m.width,
                m.height,
                kind=m.kind,
                power=m.power,
                intrinsic_delay=K_DELAY_NS_PER_UM * math.sqrt(m.area),
                min_aspect=m.min_aspect,
                max_aspect=m.max_aspect,
            )
    return out

"""Material properties and composite TSV conductivity models.

Thermal conductivities are in W/(m K) and volumetric heat capacities in
J/(m^3 K), at ~300 K.  The values follow HotSpot's defaults where HotSpot
defines them; the composite models capture the paper's key physical lever:
copper TSVs locally raise the vertical conductivity of the bond layer and
the thinned upper-die bulk, turning TSV clusters into "heat pipes"
(Sec. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Material",
    "SILICON",
    "COPPER",
    "BEOL",
    "BOND",
    "TIM",
    "tsv_composite_vertical",
    "tsv_composite_lateral",
]


@dataclass(frozen=True)
class Material:
    """A homogeneous material: conductivity k and volumetric capacity c."""

    name: str
    conductivity: float  # W/(m K)
    capacity: float  # J/(m^3 K)

    def __post_init__(self) -> None:
        if self.conductivity <= 0 or self.capacity <= 0:
            raise ValueError(f"material {self.name!r}: non-positive property")


SILICON = Material("silicon", 150.0, 1.75e6)
COPPER = Material("copper", 400.0, 3.55e6)
#: Back-end-of-line metal/dielectric stack (HotSpot layer default).
BEOL = Material("beol", 2.25, 2.0e6)
#: Adhesive / bonding layer between stacked dies.
BOND = Material("bond", 0.9, 2.0e6)
#: Thermal interface material between top die and heat spreader.
TIM = Material("tim", 4.0, 4.0e6)


def tsv_composite_vertical(base: Material, density: np.ndarray | float) -> np.ndarray:
    """Effective *vertical* conductivity of a layer containing TSVs.

    Heat flows through copper vias and base material in parallel, so the
    effective conductivity is the area-weighted arithmetic mean
    ``k = d * k_cu + (1 - d) * k_base`` with d the TSV area density.
    The keep-out zone is liner/silicon, counted as base material; callers
    pass the *copper* fraction (density map scaled by barrel/footprint
    area ratio) or the footprint density as an upper-bound model.
    """
    d = np.clip(np.asarray(density, dtype=float), 0.0, 1.0)
    return d * COPPER.conductivity + (1.0 - d) * base.conductivity


def tsv_composite_lateral(base: Material, density: np.ndarray | float) -> np.ndarray:
    """Effective *lateral* conductivity of a layer containing TSVs.

    Laterally, heat crosses alternating copper and base slabs — closer to
    a series arrangement; we use the Maxwell-Eucken effective-medium bound
    for cylindrical inclusions, which lies between series and parallel:

        k_eff = k_b * (k_cu + k_b + d (k_cu - k_b)) /
                      (k_cu + k_b - d (k_cu - k_b))
    """
    d = np.clip(np.asarray(density, dtype=float), 0.0, 1.0)
    kb, kc = base.conductivity, COPPER.conductivity
    return kb * (kc + kb + d * (kc - kb)) / (kc + kb - d * (kc - kb))


def tsv_composite_capacity(base: Material, density: np.ndarray | float) -> np.ndarray:
    """Volume-weighted heat capacity of a TSV-laden layer."""
    d = np.clip(np.asarray(density, dtype=float), 0.0, 1.0)
    return d * COPPER.capacity + (1.0 - d) * base.capacity

"""3D stack description.

The paper floorplans two dies stacked face-to-back with the heatsink atop
the upper die and a secondary heat path through the package below the
lower die (Sec. 3, Fig. 1).  :class:`StackConfig` captures that structure
plus the fixed die outline shared by all dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .geometry import Rect
from .tsv import TSV_DIAMETER, TSV_KEEPOUT

__all__ = ["StackConfig"]


@dataclass(frozen=True)
class StackConfig:
    """Configuration of the 3D stack: outline and die count.  Dies stack
    face-to-back (the paper's assumption and the only style the thermal
    stack builder models), and signal TSVs take the geometry of
    :data:`~repro.layout.tsv.TSV_DIAMETER` / ``TSV_KEEPOUT``.

    Parameters
    ----------
    outline:
        Fixed die outline in um (same for every die; fixed-outline
        floorplanning per Sec. 7).
    num_dies:
        Number of stacked dies (the paper evaluates two).  Die 0 is the
        bottom die (die 1 in the paper's d = 1 notation); the top die is
        adjacent to the heatsink.
    """

    outline: Rect
    num_dies: int = 2

    def __post_init__(self) -> None:
        if self.num_dies < 1:
            raise ValueError("a stack needs at least one die")
        if self.outline.area <= 0:
            raise ValueError("die outline must have positive area")

    @property
    def tsv_pitch(self) -> float:
        return TSV_DIAMETER + 2.0 * TSV_KEEPOUT

    def die_pairs(self) -> List[Tuple[int, int]]:
        """Adjacent die pairs that TSVs may span."""
        return [(i, i + 1) for i in range(self.num_dies - 1)]

    @staticmethod
    def square(side: float, num_dies: int = 2) -> "StackConfig":
        """Convenience constructor for a square outline of ``side`` um."""
        return StackConfig(Rect(0.0, 0.0, side, side), num_dies=num_dies)

"""Die and 3D stack descriptions.

The paper floorplans two dies stacked face-to-back with the heatsink atop
the upper die and a secondary heat path through the package below the
lower die (Sec. 3, Fig. 1).  :class:`StackConfig` captures that structure
plus the fixed die outline shared by all dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .geometry import Rect

__all__ = ["Die", "StackConfig"]


@dataclass(frozen=True)
class Die:
    """One die of the stack.  ``index`` 0 is the bottom die (die 1 in the
    paper's d = 1 notation); the top die is adjacent to the heatsink."""

    index: int
    outline: Rect

    @property
    def area(self) -> float:
        return self.outline.area

    @property
    def name(self) -> str:
        return f"die{self.index + 1}"


@dataclass(frozen=True)
class StackConfig:
    """Configuration of the 3D stack: outline, die count, stacking style.

    Parameters
    ----------
    outline:
        Fixed die outline in um (same for every die; fixed-outline
        floorplanning per Sec. 7).
    num_dies:
        Number of stacked dies (the paper evaluates two).
    face_to_back:
        Stacking style flag; face-to-back is the paper's assumption and
        the only style modelled by the thermal stack builder.
    tsv_diameter, tsv_keepout:
        Default TSV geometry in um.
    """

    outline: Rect
    num_dies: int = 2
    face_to_back: bool = True
    tsv_diameter: float = 5.0
    tsv_keepout: float = 2.5

    def __post_init__(self) -> None:
        if self.num_dies < 1:
            raise ValueError("a stack needs at least one die")
        if self.outline.area <= 0:
            raise ValueError("die outline must have positive area")

    @property
    def dies(self) -> List[Die]:
        return [Die(i, self.outline) for i in range(self.num_dies)]

    @property
    def tsv_pitch(self) -> float:
        return self.tsv_diameter + 2.0 * self.tsv_keepout

    def die_pairs(self) -> List[Tuple[int, int]]:
        """Adjacent die pairs that TSVs may span."""
        return [(i, i + 1) for i in range(self.num_dies - 1)]

    @staticmethod
    def square(side: float, num_dies: int = 2, **kwargs) -> "StackConfig":
        """Convenience constructor for a square outline of ``side`` um."""
        return StackConfig(Rect(0.0, 0.0, side, side), num_dies=num_dies, **kwargs)

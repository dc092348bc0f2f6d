"""Circuit modules (blocks) as handled by block-level floorplanning.

The paper targets the realistic scenario where designers floorplan
"black box" IP modules with access to only basic properties: area,
terminals, and nominal power (Sec. 2.2).  Accordingly a :class:`Module`
carries exactly that — dimensions, hard/soft classification, nominal power
at 1.0 V, and an optional intrinsic delay for the timing substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from .geometry import Rect

__all__ = ["Module", "ModuleKind", "Placement"]


class ModuleKind:
    """Hard blocks have fixed dimensions; soft blocks may be reshaped."""

    HARD = "hard"
    SOFT = "soft"


@dataclass(frozen=True)
class Module:
    """An IP module ("block") to be placed on one die of the 3D stack.

    Parameters
    ----------
    name:
        Unique identifier within a benchmark.
    width, height:
        Footprint in um (nominal orientation).
    kind:
        ``ModuleKind.HARD`` or ``ModuleKind.SOFT``.
    power:
        Nominal power dissipation in W at the 1.0 V reference supply.
    intrinsic_delay:
        Module-internal delay in ns at 1.0 V (area-derived when built by
        the benchmark generator; see ``repro.timing.delay_model``).
    min_aspect, max_aspect:
        Reshaping range (w/h) for soft modules.
    """

    name: str
    width: float
    height: float
    kind: str = ModuleKind.HARD
    power: float = 0.0
    intrinsic_delay: float = 0.0
    min_aspect: float = 1.0 / 3.0
    max_aspect: float = 3.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"module {self.name!r}: non-positive dimensions")
        if self.power < 0:
            raise ValueError(f"module {self.name!r}: negative power")
        if self.kind not in (ModuleKind.HARD, ModuleKind.SOFT):
            raise ValueError(f"module {self.name!r}: unknown kind {self.kind!r}")
        if self.min_aspect <= 0 or self.max_aspect < self.min_aspect:
            raise ValueError(f"module {self.name!r}: invalid aspect range")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def is_soft(self) -> bool:
        return self.kind == ModuleKind.SOFT


@dataclass(frozen=True)
class Placement:
    """A placed module instance: position, die, orientation, voltage.

    ``rotated`` swaps width and height.  ``voltage`` is the supply assigned
    by the voltage-volume stage (defaults to the 1.0 V reference).
    """

    module: Module
    x: float
    y: float
    die: int
    rotated: bool = False
    voltage: float = 1.0

    @property
    def width(self) -> float:
        return self.module.height if self.rotated else self.module.width

    @property
    def height(self) -> float:
        return self.module.width if self.rotated else self.module.height

    @property
    def rect(self) -> Rect:
        return Rect(self.x, self.y, self.width, self.height)

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    @property
    def name(self) -> str:
        return self.module.name

    def with_voltage(self, voltage: float) -> "Placement":
        return replace(self, voltage=voltage)

"""Planar geometry primitives for block-level floorplanning.

All coordinates are in micrometres (um) unless stated otherwise.  The
floorplanning, thermal, and leakage subsystems share these primitives, so
they are deliberately small, immutable where possible, and numpy-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Point",
    "Rect",
    "total_overlap_area",
]


@dataclass(frozen=True)
class Point:
    """A 2D point (um)."""

    x: float
    y: float


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle, stored as lower-left corner plus size.

    Invariants: ``w >= 0`` and ``h >= 0``.  Degenerate (zero-area)
    rectangles are allowed; they are useful as point markers for terminals.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"Rect requires non-negative size, got w={self.w}, h={self.h}")

    # -- derived coordinates -------------------------------------------------
    @property
    def x2(self) -> float:
        """Right edge coordinate."""
        return self.x + self.w

    @property
    def y2(self) -> float:
        """Top edge coordinate."""
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center(self) -> Point:
        return Point(self.x + self.w / 2.0, self.y + self.h / 2.0)

    # -- predicates ----------------------------------------------------------
    def contains_point(self, px: float, py: float) -> bool:
        """Whether (px, py) lies inside or on the boundary."""
        return self.x <= px <= self.x2 and self.y <= py <= self.y2

    # -- constructive operations ----------------------------------------------
    def overlap_area(self, other: "Rect") -> float:
        """Area of the intersection (0.0 when disjoint)."""
        dx = min(self.x2, other.x2) - max(self.x, other.x)
        dy = min(self.y2, other.y2) - max(self.y, other.y)
        if dx <= 0 or dy <= 0:
            return 0.0
        return dx * dy


def total_overlap_area(rects: Sequence[Rect]) -> float:
    """Sum of pairwise overlap areas (0.0 for a legal packing)."""
    order = sorted(range(len(rects)), key=lambda i: rects[i].x)
    active: list[int] = []
    total = 0.0
    for idx in order:
        r = rects[idx]
        active = [j for j in active if rects[j].x2 > r.x]
        for j in active:
            total += r.overlap_area(rects[j])
        active.append(idx)
    return total
